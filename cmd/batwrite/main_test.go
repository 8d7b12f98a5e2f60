package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenDatasets runs the command for two tiny clustered worlds and
// compares every byte it leaves behind with a recorded digest (all five
// recorded when the leaf files became version 5, which derives the shallow
// tree instead of storing it, stores the treelet cells as keys and frames
// node-table columns as runs, and left every .batm byte where it was):
// SHA-256 over "<name>\n<contents>" of the .bat/.batm files in name
// order. Generator, aggregation plan and BAT build determinism in one
// assertion — any of them moving a byte moves the digest. Regenerate with
//
//	for f in $(ls | sort); do printf '%s\n' $f; cat $f; done | sha256sum
//
// in the -out directory, and say in the commit what changed the bytes.
func TestGoldenDatasets(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		files  int
		digest string
	}{
		{ // halos partly formed (FormSteps 1000)
			[]string{"-workload", "cosmo", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "400"},
			5, "0314200d7fa3820003a5bf3085a7ccfa8c51e96daa25dc0c5571385b63b90f50",
		},
		{ // mid-schedule plumes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50"},
			5, "4bf692ca20b055f31a19534465097a7b289c9f04b83dcfae6c871afe965755a5",
		},
		{ // the same plumes lossy: sorted-cell-for positions, quant-for attributes in both frame modes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3,1e-9,1e-3,1e-3,1e-3,1e-4,1e-3", "-lod-error-scale", "4"},
			5, "eba471507c37aa4aa6aa8b11aece63c5d610623eeb584eae0c5a263cfe16f9d7",
		},
		{ // one -error-bound for every attribute
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3", "-lod-error-scale", "4"},
			5, "acbca4992298424142da01bd6d8a3dd84c9a05206bded59419581532df361099",
		},
		{ // a bound > 0 alone makes the write lossy, with no LOD error scale
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3"},
			5, "7efe95eea59490665c4b5ed08979361b68604a63fbe7add62aefcd430be7ed81",
		},
	} {
		args := append(tc.args, "-out", t.TempDir())
		files, digest := runAndDigest(t, args)
		if files != tc.files || digest != tc.digest {
			t.Errorf("batwrite %v: %d files, digest %s; want %d files, digest %s",
				args, files, digest, tc.files, tc.digest)
		}
	}
}

// runAndDigest runs the command and digests what it left in its -out
// directory (the last argument).
func runAndDigest(t *testing.T, args []string) (files int, digest string) {
	t.Helper()
	var stdout bytes.Buffer
	if err := run(args, &stdout); err != nil {
		t.Fatalf("batwrite %v: %v", args, err)
	}
	if !strings.HasPrefix(stdout.String(), "wrote ") {
		t.Errorf("batwrite %v: unexpected report:\n%s", args, stdout.String())
	}
	dir := args[len(args)-1]
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		if ext := filepath.Ext(e.Name()); ext != ".bat" && ext != ".batm" {
			t.Errorf("batwrite %v left %s behind", args, e.Name())
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(e.Name() + "\n"))
		h.Write(data)
	}
	return len(entries), hex.EncodeToString(h.Sum(nil))
}
