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
// compares every byte it leaves behind with a recorded digest (the
// uncompressed ones at commit ab46756, the compressed one when the frames
// left the v3 sections: cell-for positions, quant-for frame columns): SHA-256 over "<name>\n<contents>" of the .bat/.batm files in name
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
			5, "eae8657b98f26d251724c84c2b0b042bd8adf00f7353a396cef09a34297b8774",
		},
		{ // mid-schedule plumes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50"},
			5, "709b76aaf851d1d2d9dd75aeda2a744bfe43ff392b9e4965a123d01fcc9819f4",
		},
		{ // the same plumes as version-3 files: cell-for positions, quant-for attributes in both frame modes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-compress", "-error-bound", "1e-3,1e-9,1e-3,1e-3,1e-3,1e-4,1e-3", "-lod-error-scale", "4"},
			5, "e24ea471f744f8729bfaa9099d8b3402b4bd77bd9255eb25c6f5b09afa0cc2f4",
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
