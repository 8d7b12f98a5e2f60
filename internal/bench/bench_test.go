package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"libbat/internal/perf"
)

// parseCell reads a numeric table cell.
func parseCell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(tb.Rows[row][col], "%"), "x"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

// colIndex finds a header column.
func colIndex(t *testing.T, tb *Table, name string) int {
	t.Helper()
	for i, h := range tb.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, tb.Header)
	return -1
}

// smallScaling keeps the modeled scaling tests fast.
func smallScaling(p perf.Profile) WeakScalingConfig {
	cfg := DefaultWeakScaling(p)
	cfg.RankCounts = []int{96, 1536, 6144}
	cfg.TargetSizes = []int64{8 << 20, 64 << 20}
	return cfg
}

func TestFig5ShapesMatchPaper(t *testing.T) {
	for _, p := range []perf.Profile{perf.Stampede2(), perf.Summit()} {
		cfg := smallScaling(p)
		tb, err := Fig5WriteScaling(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tb.Rows) != len(cfg.RankCounts) {
			t.Fatalf("rows = %d", len(tb.Rows))
		}
		// Headline: at the largest scale, ours (64MB) beats every baseline.
		last := len(tb.Rows) - 1
		ours := parseCell(t, tb, last, colIndex(t, tb, "ours-64MB"))
		for _, c := range []string{"fpp", "shared", "hdf5"} {
			if base := parseCell(t, tb, last, colIndex(t, tb, c)); base >= ours {
				t.Errorf("%s: %s (%.1f) >= ours-64MB (%.1f) at scale", p.Name, c, base, ours)
			}
		}
		// FPP leads at the smallest scale.
		fpp := parseCell(t, tb, 0, colIndex(t, tb, "fpp"))
		if ours0 := parseCell(t, tb, 0, colIndex(t, tb, "ours-64MB")); ours0 >= fpp {
			t.Errorf("%s: at small scale FPP (%.1f) should lead ours-64MB (%.1f)", p.Name, fpp, ours0)
		}
		var buf bytes.Buffer
		tb.Fprint(&buf)
		t.Log("\n" + buf.String())
	}
}

func TestFig7ReadShapes(t *testing.T) {
	cfg := smallScaling(perf.Stampede2())
	tb, err := Fig7ReadScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Rows) - 1
	ours := parseCell(t, tb, last, colIndex(t, tb, "ours-64MB"))
	for _, c := range []string{"fpp", "shared", "hdf5"} {
		if base := parseCell(t, tb, last, colIndex(t, tb, c)); base >= ours {
			t.Errorf("read: %s (%.1f) >= ours (%.1f) at scale", c, base, ours)
		}
	}
}

func TestFig6BreakdownSums(t *testing.T) {
	cfg := smallScaling(perf.Stampede2())
	cfg.RankCounts = []int{384}
	tb, err := Fig6Breakdown(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tb.Rows {
		var sum float64
		for c := 2; c < 8; c++ {
			sum += parseCell(t, tb, r, c)
		}
		total := parseCell(t, tb, r, 8)
		if sum < total*0.99 || sum > total*1.01 {
			t.Errorf("row %d: components %.2f != total %.2f", r, sum, total)
		}
	}
}

func TestFig9AdaptiveBeatsAUG(t *testing.T) {
	cfg := DefaultCoalBoilerCompare()
	cfg.Steps = []int{501, 4501}
	cfg.TargetSizes = []int64{8 << 20}
	write, read, err := Fig9CoalBoiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{write, read} {
		for r := range tb.Rows {
			ad := parseCell(t, tb, r, colIndex(t, tb, "adaptive-8MB"))
			ag := parseCell(t, tb, r, colIndex(t, tb, "aug-8MB"))
			if ad <= ag {
				t.Errorf("%s row %d: adaptive %.1f <= aug %.1f", tb.Title, r, ad, ag)
			}
		}
	}
	var buf bytes.Buffer
	write.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestFig11DamBreakAdaptiveWins(t *testing.T) {
	cfg, total := DefaultDamBreakCompare(false)
	cfg.Steps = []int{0, 2001}
	cfg.TargetSizes = []int64{3 << 20}
	write, read, err := Fig11DamBreak(cfg, total)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range []*Table{write, read} {
		for r := range tb.Rows {
			ad := parseCell(t, tb, r, colIndex(t, tb, "adaptive-3MB"))
			ag := parseCell(t, tb, r, colIndex(t, tb, "aug-3MB"))
			if ad < ag*0.95 {
				t.Errorf("%s row %d: adaptive %.1f well below aug %.1f", tb.Title, r, ad, ag)
			}
		}
	}
}

func TestFig12AdaptiveNearConstant(t *testing.T) {
	// Paper: adaptive write times stay nearly constant over the Dam Break
	// series while AUG varies with the particle distribution.
	cfg, total := DefaultDamBreakCompare(false)
	cfg.Steps = []int{0, 1001, 2001, 3001, 4001}
	tb, err := Fig12Breakdown(cfg, total)
	if err != nil {
		t.Fatal(err)
	}
	variation := func(strategy string) float64 {
		min, max := 1e18, 0.0
		for r := range tb.Rows {
			if tb.Rows[r][1] != strategy {
				continue
			}
			v := parseCell(t, tb, r, colIndex(t, tb, "total"))
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return max / min
	}
	adVar, augVar := variation("adaptive"), variation("aug")
	if adVar > augVar {
		t.Errorf("adaptive variation %.2fx should not exceed AUG %.2fx", adVar, augVar)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestFileStatsShape(t *testing.T) {
	// Adaptive must produce a tighter file-size distribution (lower
	// stddev and max) than AUG at the same target, as in §VI-A.2.
	tb, err := FileStats(1536, 4501, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	adStd := parseCell(t, tb, 0, colIndex(t, tb, "stddev MB"))
	augStd := parseCell(t, tb, 1, colIndex(t, tb, "stddev MB"))
	adMax := parseCell(t, tb, 0, colIndex(t, tb, "max MB"))
	augMax := parseCell(t, tb, 1, colIndex(t, tb, "max MB"))
	if adStd >= augStd {
		t.Errorf("adaptive stddev %.1f >= aug %.1f", adStd, augStd)
	}
	if adMax >= augMax {
		t.Errorf("adaptive max %.1f >= aug %.1f", adMax, augMax)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestTable1RealReads(t *testing.T) {
	if testing.Short() {
		t.Skip("materialized benchmark")
	}
	cfg := VisReadConfig{
		Ranks:       16,
		Steps:       []int{0, 10},
		TargetSizes: []int64{512 << 10, 1 << 20},
	}
	tb, err := Table1CoalBoiler(cfg, 40_000, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := range tb.Rows {
		if ms := parseCell(t, tb, r, 1); ms <= 0 {
			t.Errorf("row %d: nonpositive read time", r)
		}
		if tp := parseCell(t, tb, r, 2); tp <= 0 {
			t.Errorf("row %d: nonpositive throughput", r)
		}
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestTable2RealReads(t *testing.T) {
	if testing.Short() {
		t.Skip("materialized benchmark")
	}
	cfg := VisReadConfig{
		Ranks:       16,
		Steps:       []int{0, 1000},
		TargetSizes: []int64{512 << 10},
	}
	tb, err := Table2DamBreak(cfg, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if parseCell(t, tb, 0, 2) <= 0 {
		t.Error("zero throughput")
	}
}

func TestFig13QualityProgression(t *testing.T) {
	if testing.Short() {
		t.Skip("materialized benchmark")
	}
	tb, err := Fig13Quality(VisReadConfig{Ranks: 8, TargetSizes: []int64{512 << 10}}, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	// Fractions increase with quality and reach 1.0.
	var prev float64
	for r := range tb.Rows {
		f := parseCell(t, tb, r, 2)
		if f < prev {
			t.Errorf("fraction decreased at row %d", r)
		}
		prev = f
	}
	if prev < 0.999 {
		t.Errorf("quality 1.0 fraction = %.3f", prev)
	}
}

func TestOverheadNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("materialized benchmark")
	}
	tb, err := Overhead(VisReadConfig{Ranks: 8}, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	// One-sided: the packed layout is smaller than the raw payload
	// (EXPERIMENTS.md), and must never cost more than the paper's 0.9%.
	if over := parseCell(t, tb, 0, 3); over > 0.9 {
		t.Errorf("overhead %.2f%%, above the paper's ~0.9%%", over)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestFig8Stats(t *testing.T) {
	tb, err := Fig8DatasetStats(96)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tb.AddRow("1", "hello,world")
	var text, csv bytes.Buffer
	tb.Fprint(&text)
	tb.CSV(&csv)
	if !strings.Contains(text.String(), "== T ==") || !strings.Contains(text.String(), "note: n") {
		t.Errorf("text render:\n%s", text.String())
	}
	if !strings.Contains(csv.String(), `"hello,world"`) {
		t.Errorf("csv render:\n%s", csv.String())
	}
}
