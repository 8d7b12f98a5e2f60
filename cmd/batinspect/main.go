// Command batinspect prints the structure of a written dataset: the
// top-level metadata (aggregation tree, global attribute ranges, leaf
// files) and, with -leaf, the layout of one BAT file (shallow tree,
// treelets, bitmap dictionary, storage overhead).
//
//	batinspect -in /tmp/ds -name coal-boiler-0050
//	batinspect -in /tmp/ds -name coal-boiler-0050 -leaf 0
//
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
	"libbat/internal/meta"
	"libbat/internal/pfs"
)

func main() {
	var (
		in      = flag.String("in", "bat-out", "dataset directory")
		name    = flag.String("name", "", "dataset base name (required)")
		leaf    = flag.Int("leaf", -1, "inspect one leaf BAT file")
		tree    = flag.Bool("tree", false, "print the aggregation tree hierarchy")
		verify  = flag.Bool("verify", false, "verify all checksums in the dataset; exit non-zero on corruption")
		accessF = flag.Bool("access", false, "print the dataset's access-telemetry sidecar (batserve -access-persist / batread -access-out)")
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
	if *accessF {
		if err := printAccess(os.Stdout, store, *name); err != nil {
			fail(err)
		}
		return
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

	if *leaf >= 0 {
		if *leaf >= len(m.Leaves) {
			fail(fmt.Errorf("leaf %d out of range (%d leaves)", *leaf, len(m.Leaves)))
		}
		inspectLeaf(ds, *leaf, fail)
		return
	}
	if *tree {
		printTree(m)
		return
	}

	fmt.Printf("dataset %s\n", *name)
	fmt.Printf("  domain: %v\n", m.Domain)
	fmt.Printf("  particles: %d in %d leaf files (%d aggregation-tree inner nodes)\n",
		m.TotalCount(), len(m.Leaves), len(m.Nodes))
	fmt.Printf("  attributes:\n")
	for a, d := range m.Schema.Attrs {
		r := m.GlobalRanges[a]
		line := fmt.Sprintf("    %-12s %-8s global range [%g, %g]", d.Name, d.Type, r.Min, r.Max)
		if c := m.Compression; c != nil && a < len(c.ErrorBounds) {
			if b := c.ErrorBounds[a]; b > 0 {
				line += fmt.Sprintf("  error bound %g", b)
			} else {
				line += "  lossless"
			}
		}
		fmt.Println(line)
	}
	if c := m.Compression; c != nil {
		fmt.Printf("  compression: enabled (LOD error scale %g)\n", c.LODScale)
	}
	fmt.Printf("  leaves:\n")
	for i, l := range m.Leaves {
		fmt.Printf("    %3d %-28s %9d particles  %v\n", i, l.FileName, l.Count, l.Bounds)
	}
}

// verifyDataset checks every checksum in the dataset: the metadata trailer
// first (nothing else can be trusted without it), then each leaf file's
// header CRC, per-treelet CRCs, and particle count against the metadata.
// It prints one line per file and reports whether everything passed.
// Version-1 files carry no checksums; they are listed as unverifiable but
// do not fail the run.
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
		if !f.Checksummed() {
			fmt.Fprintf(w, "skip  %-28s version %d file has no checksums\n", lm.FileName, f.Version)
		} else if err := f.Verify(); err != nil {
			bad(lm.FileName, err)
		} else if int64(f.NumParticles) != lm.Count {
			bad(lm.FileName, fmt.Errorf("holds %d particles, metadata says %d", f.NumParticles, lm.Count))
		} else if ci := f.Compression(); ci != nil {
			fmt.Fprintf(w, "ok    %-28s %d treelets, %d particles, v3 ratio %.2fx\n",
				lm.FileName, f.NumTreelets(), f.NumParticles, ci.Ratio())
		} else {
			fmt.Fprintf(w, "ok    %-28s %d treelets, %d particles\n",
				lm.FileName, f.NumTreelets(), f.NumParticles)
		}
		// One leaf open at a time: Close releases it and ds stays usable.
		if cerr := ds.Close(); cerr != nil {
			bad(lm.FileName, cerr)
		}
	}
	return ok
}

// printTree renders the aggregation tree hierarchy: inner split planes and
// leaf files with their particle counts.
func printTree(m *meta.Meta) {
	if len(m.Leaves) == 0 {
		fmt.Println("empty dataset")
		return
	}
	var rec func(ref int32, indent string)
	rec = func(ref int32, indent string) {
		if ref < 0 {
			li := int(^ref)
			l := m.Leaves[li]
			fmt.Printf("%sleaf %d: %s (%d particles)\n", indent, li, l.FileName, l.Count)
			return
		}
		n := m.Nodes[ref]
		fmt.Printf("%ssplit %s @ %.4g\n", indent, n.Axis, n.Pos)
		rec(n.Left, indent+"  ")
		rec(n.Right, indent+"  ")
	}
	if len(m.Nodes) == 0 {
		// Flat grouping (e.g. AUG): list leaves.
		for li := range m.Leaves {
			rec(int32(^li), "")
		}
		return
	}
	rec(0, "")
}

func inspectLeaf(ds *core.Dataset, li int, fail func(error)) {
	f, err := ds.Leaf(context.Background(), li)
	if err != nil {
		fail(err)
	}
	fmt.Printf("BAT file %s (%d bytes)\n", ds.Meta().Leaves[li].FileName, f.Size())
	fmt.Printf("  particles: %d, treelets: %d, max treelet depth: %d\n",
		f.NumParticles, f.NumTreelets(), f.MaxTreeletDepth)
	fmt.Printf("  build config: subprefix=%d bits, %d LOD/node, <=%d particles/leaf\n",
		f.SubprefixBits, f.LODPerNode, f.MaxLeafSize)
	fmt.Printf("  domain: %v\n", f.Domain)
	raw := int64(f.NumParticles) * int64(f.Schema.BytesPerParticle())
	fmt.Printf("  raw payload: %d bytes, layout overhead: %.2f%%\n",
		raw, 100*float64(f.Size()-raw)/float64(raw))
	fmt.Printf("  local attribute ranges:\n")
	for a, d := range f.Schema.Attrs {
		fmt.Printf("    %-12s [%g, %g]\n", d.Name, f.Ranges[a].Min, f.Ranges[a].Max)
	}
	if ci := f.Compression(); ci != nil {
		printCompression(f, ci, fail)
	}
	if err := ds.Close(); err != nil {
		fail(err)
	}
}

// printCompression reports a v3 file's codec layer: the declared per-
// attribute configuration, each position and attribute column's section-level
// codec usage and byte totals (aggregated over every treelet), and the
// whole-file attribute ratio.
func printCompression(f *bat.File, ci *bat.CompressionInfo, fail func(error)) {
	fmt.Printf("  compression (v3): LOD error scale %g\n", ci.LODScale)
	type colAgg struct {
		name     string
		raw, enc int64
		byCodec  map[string]int
	}
	// Rows follow TreeletSections: x, y, z, then the attributes.
	var aggs []colAgg
	for ti := 0; ti < f.NumTreelets(); ti++ {
		secs, err := f.TreeletSections(context.Background(), ti)
		if err != nil {
			fail(err)
		}
		if aggs == nil {
			aggs = make([]colAgg, len(secs))
			for i, sec := range secs {
				aggs[i] = colAgg{name: sec.Attr, byCodec: make(map[string]int)}
			}
		}
		for i, sec := range secs {
			aggs[i].raw += int64(sec.RawBytes)
			aggs[i].enc += int64(sec.EncBytes)
			aggs[i].byCodec[bat.CodecName(sec.Codec)]++
		}
	}
	fmt.Printf("    %-12s %-10s %-10s %12s %12s %7s  sections\n",
		"column", "codec", "bound", "raw bytes", "enc bytes", "ratio")
	for i, agg := range aggs {
		// The footer declares attribute codecs only; a position column is
		// the lossless block codec when packed, a raw column otherwise.
		codec, bound := "raw", "lossless"
		if a := i - bat.PositionSections; a >= 0 {
			codec = bat.CodecName(ci.Codecs[a])
			if ci.Bounds[a] > 0 {
				bound = fmt.Sprintf("%.3g", ci.Bounds[a])
			}
		} else if f.PackedPositions {
			codec = "for"
		} else if f.Quantized {
			bound = "16-bit"
		}
		ratio := 0.0
		if agg.enc > 0 {
			ratio = float64(agg.raw) / float64(agg.enc)
		}
		codecs := make([]string, 0, len(agg.byCodec))
		for name := range agg.byCodec {
			codecs = append(codecs, name)
		}
		sort.Strings(codecs)
		parts := make([]string, len(codecs))
		for j, name := range codecs {
			parts[j] = fmt.Sprintf("%s x%d", name, agg.byCodec[name])
		}
		fmt.Printf("    %-12s %-10s %-10s %12d %12d %6.2fx  %s\n",
			agg.name, codec, bound, agg.raw, agg.enc, ratio, strings.Join(parts, ", "))
	}
	fmt.Printf("    whole-file attribute payload: %d -> %d bytes (%.2fx)\n",
		ci.RawPayloadBytes, ci.EncPayloadBytes, ci.Ratio())
}
