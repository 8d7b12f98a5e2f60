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
// compares every byte it leaves behind with a recorded digest (the lossless
// ones when float attributes that cross zero began to take sign-key-for
// sections, the lossy one when the frames left the v3 sections: cell-for
// positions, quant-for frame columns): SHA-256 over "<name>\n<contents>" of the .bat/.batm files in name
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
			5, "e4af325f13cd1febd53fabac392fb2bac74f89d000d11e272c4033978410e3d9",
		},
		{ // mid-schedule plumes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50"},
			5, "67d42439cde3fe847b1664681df9525e2825acdbdec74cbaf137dc21a4c25a67",
		},
		{ // the same plumes as version-3 files: cell-for positions, quant-for attributes in both frame modes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3,1e-9,1e-3,1e-3,1e-3,1e-4,1e-3", "-lod-error-scale", "4"},
			5, "e24ea471f744f8729bfaa9099d8b3402b4bd77bd9255eb25c6f5b09afa0cc2f4",
		},
		{ // one -error-bound for every attribute (digest recorded at commit 970c8b6)
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3", "-lod-error-scale", "4"},
			5, "6bb92fb2e0107690ed7a5b5bd89d4847d07e586816354d75b3f3b84772876fd1",
		},
		{ // a bound > 0 alone makes the write lossy: the digest of the same
			// bound under the retired -compress flag (recorded at commit 0e89b22)
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3"},
			5, "a12b9ba7af774c6a4051c83750610f10daf996b7b28c9735a525ef1e52dd340d",
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
