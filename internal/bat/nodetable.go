package bat

import (
	"fmt"
	"math"

	"libbat/internal/bitmap"
	"libbat/internal/particles"
)

// node is a treelet node, the one type buildTreelet appends and
// unpackNodeTable returns: its split axis (leafAxis for a leaf) and plane,
// its children (node indices within the treelet; unset for a leaf), and its
// range of the treelet's layout order — an inner node's LOD samples, all of
// a leaf's particles. Its bitmaps are not in it: a treelet keeps them in one
// column, nA per node, node i's from i·nA on.
type node struct {
	axis         uint8
	split        float32
	left, right  int32
	start, count uint32
}

// leafAxis is a leaf's axis.
const leafAxis = 3

// --- node table ---

// A treelet's node table stores its nodes as 3 + nA columns in node order,
// each one run — base uvarint, width u8, offsets (putRun) —: axis, count, the
// f32Key of every inner node's split plane, then each attribute's bitmap IDs.
// buildTreelet makes the nodes breadth-first, so the rest of a node is a
// function of its index — the k-th inner node's children are nodes 2k+1 and
// 2k+2, a node's particles start where the previous node's end — and a
// split is a particle coordinate, a float32.
const (
	nodeColAxis = iota
	nodeColCount
	nodeColSplit
	nodeColIDs // + attribute index
)

// nodeColumnName names column col of a packed node table (batinspect).
func nodeColumnName(col int, schema particles.Schema) string {
	if col < nodeColIDs {
		return [...]string{"axis", "count", "split"}[col]
	}
	return "ids " + schema.Attrs[col-nodeColIDs].Name
}

// nodeColumnLimit is the largest value column col of a packed node table
// holds: an axis is 0..3, a count and a split key are 32 bits, a bitmap ID
// is 16.
func nodeColumnLimit(col int) uint64 {
	switch col {
	case nodeColAxis:
		return leafAxis
	case nodeColCount, nodeColSplit:
		return math.MaxUint32
	}
	return math.MaxUint16
}

// nodeColumn gathers column col of t's node table into vals' backing array.
// ids holds the nodes' interned bitmap IDs, nA per node.
func nodeColumn(vals []uint64, t *treelet, ids []bitmap.ID, nA, col int) []uint64 {
	vals = vals[:0]
	for i := range t.nodes {
		n := &t.nodes[i]
		switch col {
		case nodeColAxis:
			vals = append(vals, uint64(n.axis))
		case nodeColCount:
			vals = append(vals, uint64(n.count))
		case nodeColSplit:
			if n.axis != leafAxis {
				vals = append(vals, uint64(keyOf(n.split)))
			}
		default:
			vals = append(vals, uint64(ids[i*nA+col-nodeColIDs]))
		}
	}
	return vals
}

// packNodeTable writes t's packed node table at dst and returns its byte
// length; a nil dst only sizes it, so the size pass and the packer cannot
// disagree. dst needs packSlack bytes past the table. vals is scratch; with
// room for a value per node no column reallocates it.
func packNodeTable(dst []byte, t *treelet, ids []bitmap.ID, nA int, vals []uint64) int {
	pos := 0
	for col := 0; col < nodeColIDs+nA; col++ {
		vals := nodeColumn(vals, t, ids, nA, col)
		fr := frameOf(vals)
		if dst == nil {
			pos += runLen(len(vals), fr)
			continue
		}
		pos = putRun(dst, pos, vals, fr)
	}
	return pos
}

// unpackNodeTable reads the packed node table of a treelet of nNodes nodes,
// nPoints points and nA attributes, none deeper than maxDepth, from src,
// which runs on to the treelet's end, and returns the nodes, their bitmaps
// (nA per node), each ID looked up in dict as its column is read, the column
// scratch of a value per node it read them through, and the table's byte
// length. A table has no field for a child index or a range start, so it
// cannot say that a node has two parents, a child out of range or a particle
// range that overlaps another's; what it can say wrong — a node no parent
// reaches or one deeper than maxDepth, counts that do not add up, values past
// a column's limit, columns cut short, an ID dict does not hold (an
// *idError) — is rejected here. info, when non-nil, receives the column
// sizes.
func unpackNodeTable(src []byte, nNodes, nPoints uint32, nA, maxDepth int, dict *bitmap.Dictionary, info *NodeTableInfo) ([]node, []bitmap.Bitmap, []uint64, int, error) {
	// Bound the allocations by the section before making them. Every column
	// costs its frame, two bytes at least, and a tree of more than one node
	// has both inner nodes and leaves, so its axis column spends at least a
	// bit a node; the other columns may all be of width zero.
	nCols := nodeColIDs + nA
	if 2*nCols > len(src) {
		return nil, nil, nil, 0, fmt.Errorf("node table truncated: %d column frames need %d bytes, %d remain", nCols, 2*nCols, len(src))
	}
	if nNodes > math.MaxInt32 || uint64(nNodes) > 8*uint64(len(src)) {
		return nil, nil, nil, 0, fmt.Errorf("node count %d exceeds what a table of %d bytes can hold", nNodes, len(src))
	}
	nodes := make([]node, nNodes)
	bitmaps := make([]bitmap.Bitmap, int(nNodes)*nA)
	vals := make([]uint64, nNodes)
	inner := uint32(0)
	pos := 0
	for col := 0; col < nCols; col++ {
		n := nNodes
		if col == nodeColSplit {
			n = inner
		}
		vals := vals[:n]
		fr, end, err := readRun(vals, src, pos, nodeColumnLimit(col))
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("node table column %d: %w", col, err)
		}
		if info != nil {
			info.Columns = append(info.Columns, NodeColumnInfo{Bytes: end - pos, Width: fr.width})
		}
		pos = end
		switch col {
		case nodeColAxis:
			// The k-th inner node in breadth-first order is reached before its
			// children 2k+1 and 2k+2, and both exist. The nodes of one depth
			// are a range, and the next depth's are their children: the
			// range up to the last child assigned when a depth starts.
			depth, depthEnd := 0, uint32(1)
			for i, v := range vals {
				if uint32(i) == depthEnd {
					depth, depthEnd = depth+1, 2*inner+1
					if depth > maxDepth {
						return nil, nil, nil, 0, fmt.Errorf("node %d is at depth %d, deeper than the header's %d", i, depth, maxDepth)
					}
				}
				if v < leafAxis {
					if uint32(i) > 2*inner || 2*uint64(inner)+2 >= uint64(nNodes) {
						return nil, nil, nil, 0, fmt.Errorf("node %d of %d is inner node number %d: no breadth-first tree has it there", i, nNodes, inner)
					}
					nodes[i].left, nodes[i].right = int32(2*inner+1), int32(2*inner+2)
					inner++
				}
				nodes[i].axis = uint8(v)
			}
			if nNodes > 0 && nNodes != 2*inner+1 {
				return nil, nil, nil, 0, fmt.Errorf("%d nodes with %d inner ones; a tree has 2 x inner + 1", nNodes, inner)
			}
		case nodeColCount:
			next := uint32(0)
			for i, v := range vals {
				if v > uint64(nPoints-next) {
					return nil, nil, nil, 0, fmt.Errorf("node %d holds %d particles, %d of %d remain", i, v, nPoints-next, nPoints)
				}
				nodes[i].start, nodes[i].count = next, uint32(v)
				next += uint32(v)
			}
			if next != nPoints {
				return nil, nil, nil, 0, fmt.Errorf("node particle counts add up to %d of %d points", next, nPoints)
			}
		case nodeColSplit:
			k := 0
			for i := range nodes {
				if nodes[i].axis == leafAxis {
					continue
				}
				//batlint:ignore uintcast readRun holds the column to nodeColumnLimit, 32 bits
				nodes[i].split = math.Float32frombits(f32FromKey(uint32(vals[k])))
				k++
			}
		default:
			for i, v := range vals {
				if v >= uint64(dict.Len()) {
					return nil, nil, nil, 0, &idError{node: i, id: v, dictLen: dict.Len()}
				}
				bitmaps[i*nA+col-nodeColIDs] = dict.Lookup(bitmap.ID(v))
			}
		}
	}
	return nodes, bitmaps, vals, pos, nil
}

// idError is a node's bitmap ID outside the dictionary; parseTreelet names its
// treelet ahead of the node.
type idError struct {
	node, dictLen int
	id            uint64
}

func (e *idError) Error() string {
	return fmt.Sprintf("node %d: bitmap ID %d outside dictionary of %d", e.node, e.id, e.dictLen)
}
