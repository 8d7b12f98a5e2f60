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
// recorded when the leaf files became version 4, which stopped storing the
// facts version 3 stored twice and left every .batm byte where it was):
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
			5, "3a01c1618f4207510dcefb6f86a8fab20004d84903adce9eeb2c4c977f3a87c5",
		},
		{ // mid-schedule plumes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50"},
			5, "164508efe24616efe5e04a0c40d8ccab3856d03ba91fdcc25e179a1886315681",
		},
		{ // the same plumes lossy: sorted-cell-for positions, quant-for attributes in both frame modes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3,1e-9,1e-3,1e-3,1e-3,1e-4,1e-3", "-lod-error-scale", "4"},
			5, "7cd46f4b393bc7556ba08e86b6c05b0dbb04508e157039fdf10674d1024898d3",
		},
		{ // one -error-bound for every attribute
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3", "-lod-error-scale", "4"},
			5, "b39d1f421215f5426c3c2a20ca7395e7bee6016e70e52ed23236cd710fc2e2bb",
		},
		{ // a bound > 0 alone makes the write lossy, with no LOD error scale
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3"},
			5, "f9e95b4a7390a7f9a0efcf3c1c11e4bbe147ad1af8dd995e0a12fe599e246948",
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
