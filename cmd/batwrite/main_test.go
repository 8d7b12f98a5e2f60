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
// recorded when the .batm became version 4, a table of the leaves without
// the Aggregation Tree's inner nodes, the domain or the leaves' local
// ranges; only the .batm bytes moved, every .bat file is the same as under
// version 2's metadata):
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
			5, "48f7adb9d24b61648fbc8c726a330639d08051b1f4f2519449811d57d6a0e070",
		},
		{ // mid-schedule plumes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50"},
			5, "c339fe4e4be5b839a9622dbb76bd2351933b51916db0965cd398a80cc47240e7",
		},
		{ // the same plumes lossy: sorted-cell-for positions, quant-for attributes in both frame modes
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3,1e-9,1e-3,1e-3,1e-3,1e-4,1e-3", "-lod-error-scale", "4"},
			5, "0eeb7fbc96f6067ada50831acd3817e09a896f8dc81c160460a5153d0a1fc497",
		},
		{ // one -error-bound for every attribute
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3", "-lod-error-scale", "4"},
			5, "297af1cacec373ff2a847df5352f17e23bc8d814c8009d0c2732373be9b481cc",
		},
		{ // a bound > 0 alone makes the write lossy, with no LOD error scale
			[]string{"-workload", "coalboiler", "-ranks", "8", "-particles", "4000", "-target", "64KB", "-step", "50",
				"-error-bound", "1e-3"},
			5, "d870aa09bcff400cf9cbaff9226d4eb574f2f31778c02896c54e44edeeafb404",
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
