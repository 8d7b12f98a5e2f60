package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRoundTrip: a CSV imported through the collective write pipeline and
// exported again holds the same rows — as a multiset, since the layout
// reorders particles — under the same header, with the automatic and with an
// explicit virtual-rank count.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := []string{"x,y,z,temp,id"}
	for i := 0; i < 5000; i++ {
		// Positions on a 1/64 grid are exact in float32, the precision
		// positions are stored and exported at.
		rows = append(rows, fmt.Sprintf("%g,%g,%g,%g,%d",
			float64(rng.Intn(640))/64, float64(rng.Intn(640))/64, float64(rng.Intn(64))/64,
			300+50*rng.NormFloat64(), i))
	}
	csvPath := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(csvPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []string{"0", "6"} {
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		args := []string{"-csv", csvPath, "-out", out, "-name", "rt", "-target", "64KB", "-ranks", ranks}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("batconvert %v: exit %d\n%s", args, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), "converted 5000 particles (2 attributes)") {
			t.Errorf("batconvert %v printed %q", args, stdout.String())
		}
		stdout.Reset()
		args = []string{"-export", "-in", out, "-name", "rt"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("batconvert %v: exit %d\n%s", args, code, stderr.String())
		}
		got := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if got[0] != rows[0] {
			t.Errorf("-ranks %s: exported header %q, want %q", ranks, got[0], rows[0])
		}
		want := slices.Clone(rows[1:])
		slices.Sort(want)
		slices.Sort(got[1:])
		if !slices.Equal(got[1:], want) {
			t.Errorf("-ranks %s: exported %d rows differ from the %d imported", ranks, len(got)-1, len(want))
		}
	}
}

// TestBadInput: malformed CSV and unusable arguments are reported on stderr
// with a non-zero status and leave no dataset behind.
func TestBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.csv", "x,y,z,a\n0,0,0,1\n1,1,1,2\n")
	out := filepath.Join(dir, "out")
	for _, args := range [][]string{
		{"-csv", write("header.csv", "a,y,z\n0,0,0\n")},
		{"-csv", write("ragged.csv", "x,y,z,a\n0,0,0,1\n1,1,1\n")},
		{"-csv", write("text.csv", "x,y,z,a\n0,0,zero,1\n")},
		{"-csv", filepath.Join(dir, "absent.csv")},
		{"-csv", good, "-name", ""},
		{"-csv", good, "-target", "lots"},
		{},
		{"-export", "-in", dir, "-name", "absent"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", out), &stdout, &stderr); code == 0 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("batconvert %v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "*")); len(left) != 0 {
		t.Errorf("failed conversions left %v behind", left)
	}
}
