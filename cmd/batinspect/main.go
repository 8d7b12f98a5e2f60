// Command batinspect prints the structure of a written dataset: the
// top-level metadata (the domain, global attribute ranges and the leaf
// table: each leaf file's name, particle count and bounds) and, with -leaf,
// the layout of one BAT file (treelets, their sections and node tables,
// storage ratio).
//
//	batinspect -in /tmp/ds -name coal-boiler-0050
//	batinspect -in /tmp/ds -name coal-boiler-0050 -leaf 0
//	batinspect -in /tmp/ds -name coal-boiler-0050 -bytes
//
// With -bytes it adds up where the dataset's stored bytes are: position and
// attribute sections (how many of each position column's bytes are
// Elias–Fano blocks of sorted-cell-for sections, over how many nodes and
// particles, and how many of the attribute bytes are block frames stored
// inside them), node tables, headers and footers. Every leaf file is a
// version-5 BAT file, the one layout the reader accepts; a file of any other
// version is refused at open ("unsupported version 4").
// With -verify it instead walks every file of the dataset checking the
// stored checksums (metadata trailer, BAT header and per-treelet CRCs) and
// exits non-zero if anything is damaged or missing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"libbat/internal/bat"
	"libbat/internal/core"
	"libbat/internal/pfs"
)

func main() {
	var (
		in     = flag.String("in", "bat-out", "dataset directory")
		name   = flag.String("name", "", "dataset base name (required)")
		leaf   = flag.Int("leaf", -1, "inspect one leaf BAT file")
		verify = flag.Bool("verify", false, "verify all checksums in the dataset; exit non-zero on corruption")
		bytesF = flag.Bool("bytes", false, "print where the dataset's stored bytes are, summed over every leaf file")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "batinspect:", err)
		os.Exit(1)
	}
	if *name == "" {
		fail(fmt.Errorf("-name is required"))
	}
	store, err := pfs.NewOS(*in)
	if err != nil {
		fail(err)
	}
	if *verify {
		if !verifyDataset(os.Stdout, store, *name) {
			os.Exit(1)
		}
		return
	}
	ds, err := core.OpenDataset(context.Background(), store, *name)
	if err != nil {
		fail(err)
	}
	m := ds.Meta()

	if *bytesF {
		if err := printStoredBytes(os.Stdout, store, ds, *name); err != nil {
			fail(err)
		}
		return
	}
	if *leaf >= 0 {
		if *leaf >= len(m.Leaves) {
			fail(fmt.Errorf("leaf %d out of range (%d leaves)", *leaf, len(m.Leaves)))
		}
		if err := inspectLeaf(os.Stdout, ds, *leaf); err != nil {
			fail(err)
		}
		return
	}

	if err := printSummary(os.Stdout, ds, *name); err != nil {
		fail(err)
	}
}

// printSummary prints the top-level metadata — domain, counts, each
// attribute's global range, the leaf files — with each attribute's error
// bound ("lossless" for none) and, when one is lossy, the LOD error scale.
// The metadata declares no codecs: every leaf's footer declares the same,
// and the first leaf's is read.
func printSummary(w io.Writer, ds *core.Dataset, name string) error {
	m := ds.Meta()
	var ci *bat.CompressionInfo
	if len(m.Leaves) > 0 {
		f, err := ds.Leaf(context.Background(), 0)
		if err != nil {
			return err
		}
		ci = f.Compression()
		if err := ds.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "dataset %s\n  domain: %v\n", name, m.Domain)
	fmt.Fprintf(w, "  particles: %d in %d leaf files\n  attributes:\n", m.TotalCount(), len(m.Leaves))
	lossy := false
	for a, d := range m.Schema.Attrs {
		r := m.GlobalRanges[a]
		fmt.Fprintf(w, "    %-12s %-8s global range [%g, %g]", d.Name, d.Type, r.Min, r.Max)
		if ci != nil && ci.Bounds[a] > 0 {
			fmt.Fprintf(w, "  error bound %g", ci.Bounds[a])
			lossy = true
		} else if ci != nil {
			fmt.Fprint(w, "  lossless")
		}
		fmt.Fprintln(w)
	}
	if lossy {
		fmt.Fprintf(w, "  LOD error scale: %g\n", ci.LODScale)
	}
	fmt.Fprintf(w, "  leaves:\n")
	for i, l := range m.Leaves {
		fmt.Fprintf(w, "    %3d %-28s %9d particles  %v\n", i, l.FileName, l.Count, l.Bounds)
	}
	return nil
}

// verifyDataset checks every checksum in the dataset: the metadata trailer
// first (nothing else can be trusted without it), then each leaf file's
// header CRC and per-treelet CRCs (opening a leaf already checked its
// particle count against the metadata).
// It prints one line per file and reports whether everything passed.
func verifyDataset(w io.Writer, store pfs.Storage, name string) bool {
	ctx := context.Background()
	ds, err := core.OpenDataset(ctx, store, name)
	if err != nil {
		fmt.Fprintf(w, "FAIL  %-28s %v\n", core.MetaFileName(name), err)
		return false
	}
	m := ds.Meta()
	fmt.Fprintf(w, "ok    %-28s metadata, %d leaves\n", core.MetaFileName(name), len(m.Leaves))
	ok := true
	bad := func(file string, err error) {
		fmt.Fprintf(w, "FAIL  %-28s %v\n", file, err)
		ok = false
	}
	for li, lm := range m.Leaves {
		f, err := ds.Leaf(ctx, li)
		if err != nil {
			bad(lm.FileName, err)
			continue
		}
		if err := f.Verify(); err != nil {
			bad(lm.FileName, err)
		} else {
			fmt.Fprintf(w, "ok    %-28s %d treelets, %d particles, v5 ratio %.2fx\n",
				lm.FileName, f.NumTreelets(), f.NumParticles, f.Compression().Ratio())
		}
		// One leaf open at a time: Close releases it and ds stays usable.
		if cerr := ds.Close(); cerr != nil {
			bad(lm.FileName, cerr)
		}
	}
	return ok
}

func inspectLeaf(w io.Writer, ds *core.Dataset, li int) error {
	f, err := ds.Leaf(context.Background(), li)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "BAT file %s (%d bytes)\n", ds.Meta().Leaves[li].FileName, f.Size())
	fmt.Fprintf(w, "  particles: %d, treelets: %d, max treelet depth: %d\n",
		f.NumParticles, f.NumTreelets(), f.MaxTreeletDepth)
	fmt.Fprintf(w, "  build config: subprefix=%d bits, %d LOD/node, <=%d particles/leaf\n",
		f.SubprefixBits, f.LODPerNode, f.MaxLeafSize)
	fmt.Fprintf(w, "  domain: %v\n", f.Domain)
	// A packed file is smaller than its payload: "overhead" would be
	// negative and say nothing about the layout.
	raw := int64(f.NumParticles) * int64(f.Schema.BytesPerParticle())
	fmt.Fprintf(w, "  raw payload: %d bytes, stored / raw: %.4f\n", raw, float64(f.Size())/float64(raw))
	fmt.Fprintf(w, "  local attribute ranges:\n")
	for a, d := range f.Schema.Attrs {
		fmt.Fprintf(w, "    %-12s [%g, %g]\n", d.Name, f.Ranges[a].Min, f.Ranges[a].Max)
	}
	if err := printCompression(w, f); err != nil {
		return err
	}
	return ds.Close()
}

// bitsRange formats the min/median/max of a column's block bit widths, each
// block once whatever its length ("-" when the column has no packed block).
func bitsRange(widths []uint8) string {
	n := len(widths)
	if n == 0 {
		return "-"
	}
	sort.Slice(widths, func(a, b int) bool { return widths[a] < widths[b] })
	return fmt.Sprintf("%d/%d/%d", widths[0], widths[n/2], widths[n-1])
}

// printCompression reports a file's codec layer: the declared per-
// attribute configuration, each position and attribute column's section-level
// codec usage, frame modes, block bit widths and byte totals (aggregated over
// every treelet), the whole-file attribute ratio, and how the treelets' node
// tables are stored (packed columns, with their bytes).
func printCompression(w io.Writer, f *bat.File) error {
	ci := f.Compression()
	fmt.Fprintf(w, "  compression (v5): LOD error scale %g\n", ci.LODScale)
	type colAgg struct {
		name     string
		raw, enc int64
		// kinds counts the column's sections by codec name, a framed
		// section's frame mode appended; widths
		// collects every block's bits.
		kinds  map[string]int
		widths []uint8
	}
	// Rows follow TreeletLayout: x, y, z, then the attributes; nodeCols are
	// the columns of the packed node tables.
	var aggs, nodeCols []colAgg
	var nodes, nodeBytes int64
	for ti := 0; ti < f.NumTreelets(); ti++ {
		lay, err := f.TreeletLayout(context.Background(), ti)
		if err != nil {
			return err
		}
		nodes += int64(lay.NodeTable.Nodes)
		nodeBytes += int64(lay.NodeTable.Bytes)
		if nodeCols == nil {
			nodeCols = make([]colAgg, len(lay.NodeTable.Columns))
		}
		for i, col := range lay.NodeTable.Columns {
			nodeCols[i].name = col.Name
			nodeCols[i].enc += int64(col.Bytes)
			nodeCols[i].widths = append(nodeCols[i].widths, col.Width)
		}
		secs := lay.Sections
		if aggs == nil {
			aggs = make([]colAgg, len(secs))
			for i, sec := range secs {
				aggs[i] = colAgg{name: sec.Attr, kinds: make(map[string]int)}
			}
		}
		for i, sec := range secs {
			aggs[i].raw += int64(sec.RawBytes)
			aggs[i].enc += int64(sec.EncBytes)
			kind := bat.CodecName(sec.Codec)
			if sec.Mode != "" {
				kind += " " + sec.Mode
			}
			aggs[i].kinds[kind]++
			aggs[i].widths = append(aggs[i].widths, sec.Widths...)
		}
	}
	fmt.Fprintf(w, "    %-12s %-10s %-10s %12s %12s %7s  %-14s sections\n",
		"column", "class", "bound", "raw bytes", "enc bytes", "ratio", "block bits")
	for i, agg := range aggs {
		// The class is the footer's bound, quant above 0 and lossless
		// otherwise, and a position column is lossless; the sections column
		// says what each column stores.
		class, bound := "lossless", "0"
		if a := i - bat.PositionSections; a >= 0 && ci.Bounds[a] > 0 {
			class, bound = "quant", fmt.Sprintf("%.3g", ci.Bounds[a])
		}
		ratio := 0.0
		if agg.enc > 0 {
			ratio = float64(agg.raw) / float64(agg.enc)
		}
		kinds := make([]string, 0, len(agg.kinds))
		for name := range agg.kinds {
			kinds = append(kinds, name)
		}
		sort.Strings(kinds)
		for j, name := range kinds {
			kinds[j] = fmt.Sprintf("%s x%d", name, agg.kinds[name])
		}
		fmt.Fprintf(w, "    %-12s %-10s %-10s %12d %12d %6.2fx  %-14s %s\n",
			agg.name, class, bound, agg.raw, agg.enc, ratio, bitsRange(agg.widths), strings.Join(kinds, ", "))
	}
	fmt.Fprintf(w, "    whole-file attribute payload: %d -> %d bytes (%.2fx)\n",
		ci.RawPayloadBytes, ci.EncPayloadBytes, ci.Ratio())
	fmt.Fprintf(w, "    node tables: %d nodes in %d treelets, %d bytes (packed columns, implicit topology, treelets unpadded)\n",
		nodes, f.NumTreelets(), nodeBytes)
	for _, col := range nodeCols {
		fmt.Fprintf(w, "      %-14s %12d bytes  block bits %s\n", col.name, col.enc, bitsRange(col.widths))
	}
	return nil
}

// printStoredBytes adds up where the dataset's bytes on storage are — the
// sum is what the benchmark reports as stored_bytes_per_particle — over every
// leaf file and the metadata file.
func printStoredBytes(w io.Writer, store pfs.Storage, ds *core.Dataset, name string) error {
	ctx := context.Background()
	m := ds.Meta()
	var sum bat.StoredBytes
	for li := range m.Leaves {
		f, err := ds.Leaf(ctx, li)
		if err != nil {
			return err
		}
		sb, err := f.StoredBytes(ctx)
		if err != nil {
			return err
		}
		sum.Header += sb.Header
		sum.NodeTables += sb.NodeTables
		sum.Positions += sb.Positions
		sum.Attributes += sb.Attributes
		sum.Footer += sb.Footer
		sum.AttributeFrames += sb.AttributeFrames
		for ax := range sum.PositionEF {
			sum.PositionEF[ax].Add(sb.PositionEF[ax])
		}
		// One leaf open at a time: Close releases it and ds stays usable.
		if err := ds.Close(); err != nil {
			return err
		}
	}
	mf, err := store.Open(core.MetaFileName(name))
	if err != nil {
		return err
	}
	metaBytes := mf.Size()
	if err := mf.Close(); err != nil {
		return err
	}
	n := float64(m.TotalCount())
	total := int64(0)
	fmt.Fprintf(w, "stored bytes of %s: %d particles in %d leaf files\n", name, m.TotalCount(), len(m.Leaves))
	for _, row := range []struct {
		part  string
		bytes int64
		// frames, when >= 0, is how many of bytes are block frames stored
		// inside the sections: a share of the row above it, not a part.
		frames int64
	}{
		{"positions", sum.Positions, -1},
		{"attributes", sum.Attributes, sum.AttributeFrames},
		{"node tables", sum.NodeTables, -1},
		{"headers + footers", sum.Header + sum.Footer, -1},
		{core.MetaFileName(name), metaBytes, -1},
	} {
		fmt.Fprintf(w, "  %-26s %12d B %10.6f B/particle\n", row.part, row.bytes, float64(row.bytes)/n)
		if row.part == "positions" {
			// Shares of the row above, like the block frames below: the
			// Elias–Fano blocks of each position column.
			for ax, ef := range sum.PositionEF {
				efBytes := (int64(ef.Bits) + 7) / 8
				fmt.Fprintf(w, "    %-24s %12d B %10.6f B/particle  (%d nodes, %d particles)\n",
					"of which "+"xyz"[ax:ax+1]+" Elias–Fano", efBytes, float64(efBytes)/n, ef.Nodes, ef.Particles)
			}
		}
		if row.frames >= 0 {
			fmt.Fprintf(w, "    %-24s %12d B %10.6f B/particle\n", "of which block frames", row.frames, float64(row.frames)/n)
		}
		total += row.bytes
	}
	fmt.Fprintf(w, "  %-26s %12d B %10.6f B/particle\n", "total", total, float64(total)/n)
	return nil
}
