package bench

import (
	"bytes"
	"testing"
)

func TestAblateOverfull(t *testing.T) {
	tb, err := AblateOverfull(384, 2501, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Disabling the overfull rule should not reduce the file count: the
	// tree is forced to keep splitting.
	withFiles := parseCell(t, tb, 0, 1)
	withoutFiles := parseCell(t, tb, 1, 1)
	if withoutFiles < withFiles {
		t.Errorf("disabling overfull reduced files: %v -> %v", withFiles, withoutFiles)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestAblateSplitAxes(t *testing.T) {
	tb, err := AblateSplitAxes(384, 1001, 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	// All-axes search must not produce a worse (larger) max file.
	onlyLongest := parseCell(t, tb, 0, 3)
	allAxes := parseCell(t, tb, 1, 3)
	if allAxes > onlyLongest*1.2 {
		t.Errorf("all-axes max %.2f much worse than longest-axis %.2f", allAxes, onlyLongest)
	}
}

func TestAblateLOD(t *testing.T) {
	if testing.Short() {
		t.Skip("materialized benchmark")
	}
	tb, err := AblateLOD(8, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := range tb.Rows {
		if parseCell(t, tb, r, 3) <= 0 {
			t.Errorf("row %d: no throughput", r)
		}
		// One-sided: the packed layout may be smaller than the raw payload
		// (EXPERIMENTS.md), never costlier than the paper's 0.9%.
		if over := parseCell(t, tb, r, 4); over > 0.9 {
			t.Errorf("row %d: overhead %.2f%%, above the paper's 0.9%%", r, over)
		}
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestAblateBitmapDictionary(t *testing.T) {
	tb, err := AblateBitmapDictionary(100_000)
	if err != nil {
		t.Fatal(err)
	}
	saving := parseCell(t, tb, 0, 4)
	if saving <= 0 {
		t.Errorf("dictionary should save space, got %.0f%%", saving)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}

func TestAblateAggregatorSpread(t *testing.T) {
	tb, err := AblateAggregatorSpread(384, 2501, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	spread := parseCell(t, tb, 0, 1)
	naive := parseCell(t, tb, 1, 1)
	if spread > naive {
		t.Errorf("even spread (%.2f ms) should not be slower than first-fit (%.2f ms)", spread, naive)
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	t.Log("\n" + buf.String())
}
