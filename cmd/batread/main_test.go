package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"libbat"
)

// writeTwoLeaves writes a two-rank dataset whose ranks each fill one leaf
// file (80 000 particles, ~2.3 MB decoded) into a temp dir and returns the
// dir, the particle count and how many have temp in [25, 75].
func writeTwoLeaves(t *testing.T) (dir string, total, mid int64) {
	t.Helper()
	const ranks, perRank = 2, 40000
	dir = t.TempDir()
	store, err := libbat.DirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]*libbat.ParticleSet, ranks)
	for r := range sets {
		rng := rand.New(rand.NewSource(int64(r + 1)))
		sets[r] = libbat.NewParticleSet(libbat.NewSchema("temp", "id"), perRank)
		for i := 0; i < perRank; i++ {
			p := libbat.V3(float64(r)+rng.Float64(), rng.Float64(), rng.Float64())
			temp := 50 * p.X
			if temp >= 25 && temp <= 75 {
				mid++
			}
			sets[r].Append(p, []float64{temp, float64(r*perRank + i)})
		}
	}
	err = libbat.Run(ranks, func(c *libbat.Comm) error {
		lo := libbat.V3(float64(c.Rank()), 0, 0)
		_, err := libbat.Write(c, store, "two", sets[c.Rank()], libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1))),
			libbat.DefaultWriteConfig(1<<20))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := libbat.OpenDataset(store, "two")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.NumFiles() != 2 {
		t.Fatalf("dataset has %d leaf files, want 2", ds.NumFiles())
	}
	return dir, ranks * perRank, mid
}

// countReport is what batread -count prints.
type countReport struct {
	match, of                         int64
	treelets, bytes, loads, evictions int64
}

func runCount(t *testing.T, args ...string) countReport {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-count"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("batread -count %v: exit %d\n%s", args, code, stderr.String())
	}
	var r countReport
	var quality float64
	var filters int
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("batread -count %v printed %d lines:\n%s", args, len(lines), stdout.String())
	}
	if _, err := fmt.Sscanf(lines[0], "%d of %d particles match (quality %f, %d filters)",
		&r.match, &r.of, &quality, &filters); err != nil {
		t.Fatalf("unexpected count line %q: %v", lines[0], err)
	}
	if _, err := fmt.Sscanf(lines[1], "treelet cache: %d treelets, %d bytes resident, %d loads, %d evictions",
		&r.treelets, &r.bytes, &r.loads, &r.evictions); err != nil {
		t.Fatalf("unexpected cache line %q: %v", lines[1], err)
	}
	return r
}

// TestCountGolden: -count over a two-leaf dataset prints the exact counts
// at every worker setting, and -cache-mb is a budget over both leaf files:
// every treelet here is far below 1 MiB, so the resident bytes reported
// after the scan are within the limit itself.
func TestCountGolden(t *testing.T) {
	dir, total, mid := writeTwoLeaves(t)
	in := []string{"-in", dir, "-name", "two"}

	unbounded := runCount(t, in...)
	if unbounded.match != total || unbounded.of != total {
		t.Fatalf("unbounded count: %+v, want %d of %d", unbounded, total, total)
	}
	const limit = 1 << 20
	if unbounded.evictions != 0 || unbounded.bytes < 2*limit {
		t.Fatalf("unbounded run: %+v; want no evictions and over %d bytes decoded", unbounded, 2*limit)
	}
	for _, workers := range []string{"1", "2"} {
		bounded := append(in, "-cache-mb", "1", "-query-workers", workers)
		full := runCount(t, bounded...)
		if full.match != total || full.of != total {
			t.Errorf("workers %s: full count %+v, want %d of %d", workers, full, total, total)
		}
		if full.bytes > limit || full.evictions == 0 || full.loads < unbounded.loads {
			t.Errorf("workers %s: cache %+v; want at most %d bytes resident, evictions, and at least %d loads",
				workers, full, limit, unbounded.loads)
		}
		filtered := runCount(t, append(bounded, "-filter", "0,25,75")...)
		if filtered.match != mid || filtered.of != total {
			t.Errorf("workers %s: filtered count %+v, want %d of %d", workers, filtered, mid, total)
		}
		if filtered.bytes > limit {
			t.Errorf("workers %s: filtered run holds %d bytes, limit %d", workers, filtered.bytes, limit)
		}
	}
}

// TestUsageErrors: a missing -name and an unknown dataset are reported on
// stderr with a non-zero status, not by exiting the process.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-count"},
		{"-count", "-in", t.TempDir(), "-name", "absent"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("batread %v: exit %d, stdout %q, stderr %q", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestFilterRejectsNonFinite: a NaN or infinite -filter bound is a usage
// error naming the bad value, not a filter that silently matches nothing
// (batserve answers 400 to the same ?filter=).
func TestFilterRejectsNonFinite(t *testing.T) {
	for _, flt := range []string{"0,nan,1", "0,0,inf", "0,-Inf,1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-count", "-in", t.TempDir(), "-name", "absent", "-filter", flt}, &stdout, &stderr)
		if code == 0 || !strings.Contains(stderr.String(), "is not a finite number") {
			t.Errorf("batread -filter %s: exit %d, stderr %q", flt, code, stderr.String())
		}
	}
}

// metaCounters runs batread with -stats and returns how often the dataset's
// .batm file was opened and how many bytes were read from it.
func metaCounters(t *testing.T, args ...string) (opens, readBytes int64) {
	t.Helper()
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-stats", statsPath), &stdout, &stderr); code != 0 {
		t.Fatalf("batread %v: exit %d\n%s", args, code, stderr.String())
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  int64             `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	for _, c := range stats.Counters {
		if c.Labels["file"] != "two.batm" {
			continue
		}
		switch c.Name {
		case "pfs_open_calls_total":
			opens = c.Value
		case "pfs_read_bytes_total":
			readBytes = c.Value
		}
	}
	return opens, readBytes
}

// TestStatsCountStorageCallsOnce: under -stats every storage call is counted
// once, on every route. The metadata file is opened and read whole exactly
// once by -vis and -count, and once by the command plus once per reader rank
// on the collective route. (-vis used to observe the store twice and report
// 2 opens and twice the file's bytes.)
func TestStatsCountStorageCallsOnce(t *testing.T) {
	dir, _, _ := writeTwoLeaves(t)
	fi, err := os.Stat(filepath.Join(dir, "two.batm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode  []string
		opens int64
	}{
		{[]string{"-vis"}, 1},
		{[]string{"-count"}, 1},
		{[]string{"-ranks", "3"}, 1 + 3},
	} {
		opens, readBytes := metaCounters(t, append([]string{"-in", dir, "-name", "two"}, tc.mode...)...)
		if opens != tc.opens || readBytes != tc.opens*fi.Size() {
			t.Errorf("batread %v -stats: two.batm (%d bytes) counted %d opens, %d bytes read; want %d opens, %d bytes",
				tc.mode, fi.Size(), opens, readBytes, tc.opens, tc.opens*fi.Size())
		}
	}
}
