package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"libbat"
	"libbat/internal/core"
	"libbat/internal/leakcheck"
	"libbat/internal/obs"
	"libbat/internal/pfs"
)

// faultyServer writes a dataset into memory-backed storage wrapped in a
// fault injector, and builds a server over it — the chaos-harness fixture:
// every leaf read can be stalled, delayed, or failed from the test.
func faultyServer(t *testing.T, fcfg pfs.FaultConfig) (*server, *pfs.Faulty, int) {
	t.Helper()
	mem := pfs.NewMem()
	const ranks, perRank = 4, 1500
	err := libbat.Run(ranks, func(c *libbat.Comm) error {
		r := rand.New(rand.NewSource(int64(c.Rank())))
		lo := libbat.V3(float64(c.Rank()), 0, 0)
		local := libbat.NewParticleSet(libbat.NewSchema("val"), perRank)
		for i := 0; i < perRank; i++ {
			p := lo.Add(libbat.V3(r.Float64(), r.Float64(), r.Float64()))
			local.Append(p, []float64{p.X})
		}
		_, err := libbat.Write(c, mem, "chaos", local,
			libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1))), libbat.DefaultWriteConfig(30<<10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fau := pfs.NewFaulty(mem, fcfg)
	names, err := seriesOf(fau, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{store: fau, names: names, open: map[int]*libbat.Dataset{},
		col: obs.New(), qcfg: libbat.QueryConfig{Workers: 2},
		access: libbat.NewAccessRegistry()}
	t.Cleanup(s.closeDatasets)
	return s, fau, ranks * perRank
}

// stallAllLeaves marks every leaf file of the dataset stalled (the .batm
// metadata stays readable so datasets still open).
func stallAllLeaves(t *testing.T, fau *pfs.Faulty) {
	t.Helper()
	names, err := fau.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".bat") {
			fau.StallReads(n)
		}
	}
}

// TestChaosStalledLeaf504 is the server half of the acceptance criterion:
// with every leaf read stalled indefinitely, a /points request under
// -query-timeout returns a 504 with partial-result accounting within
// bounded wall time; after the stall clears, the same server (same dataset
// handles, same treelet caches) streams the complete answer.
func TestChaosStalledLeaf504(t *testing.T) {
	leakcheck.Check(t)
	s, fau, total := faultyServer(t, pfs.FaultConfig{})
	s.queryTimeout = 250 * time.Millisecond
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	stallAllLeaves(t, fau)
	start := time.Now()
	resp, err := http.Get(ts.URL + "/points")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("stalled request took %v, want bounded by the 250ms deadline", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled request: status %d (%s), want 504", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("504 without Retry-After")
	}
	var acct struct {
		Partial bool  `json:"partial"`
		Points  int64 `json:"points_streamed"`
	}
	if err := json.Unmarshal(body, &acct); err != nil {
		t.Fatalf("504 body is not JSON: %v (%s)", err, body)
	}
	if !acct.Partial || acct.Points != 0 {
		t.Errorf("504 accounting = %+v, want partial with 0 points", acct)
	}

	fau.ReleaseStalls()
	resp, err = http.Get(ts.URL + "/points")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != total*12 {
		t.Fatalf("post-release: status %d, %d bytes; want 200 with %d", resp.StatusCode, len(body), total*12)
	}
	if st := resp.Trailer.Get("X-Batserve-Status"); st != "complete" {
		t.Errorf("post-release trailer status %q, want complete", st)
	}
	if pts := resp.Trailer.Get("X-Batserve-Points"); pts != fmt.Sprint(total) {
		t.Errorf("post-release trailer points %q, want %d", pts, total)
	}
}

// TestChaosMidStreamTrailerCountsWire: points are written a block at a
// time, so when a query dies mid-stream the points still pending in the
// block must reach the wire before the trailers say how many there are. The
// first leaf is readable and smaller than a block; every other leaf stalls
// until the deadline.
func TestChaosMidStreamTrailerCountsWire(t *testing.T) {
	leakcheck.Check(t)
	s, fau, total := faultyServer(t, pfs.FaultConfig{})
	s.queryTimeout = 250 * time.Millisecond
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	names, err := fau.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	first := true
	for _, n := range names {
		if !strings.HasSuffix(n, ".bat") {
			continue
		}
		if !first {
			fau.StallReads(n)
		}
		first = false
	}
	defer fau.ReleaseStalls()

	resp, err := http.Get(ts.URL + "/points?attr=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body) // a truncated stream may end in an error; the bytes read are what counts
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%s), want a 200 cut short mid-stream", resp.StatusCode, body)
	}
	if st := resp.Trailer.Get("X-Batserve-Status"); st != "timeout" {
		t.Errorf("trailer status %q, want timeout", st)
	}
	points, err := strconv.Atoi(resp.Trailer.Get("X-Batserve-Points"))
	if err != nil {
		t.Fatalf("trailer points: %v", err)
	}
	if points <= 0 || points >= total || points*16 >= pointBlockBytes {
		t.Fatalf("%d points streamed of %d; the test needs a partial answer smaller than one block", points, total)
	}
	if len(body) != points*16 {
		t.Errorf("trailer says %d points, body holds %d bytes = %g points", points, len(body), float64(len(body))/16)
	}
}

// TestChaosCancelStorm runs batserve under combined error and latency
// injection while clients impose staggered deadlines, disconnect
// mid-stream, and a background goroutine cycles closeDatasets (the
// kill/restart half). Afterward the server must stream a complete clean
// response and leak no goroutines — no wedged cache slots, no abandoned
// workers, no singleflight entries poisoned by canceled loads.
func TestChaosCancelStorm(t *testing.T) {
	leakcheck.Check(t)
	s, fau, total := faultyServer(t, pfs.FaultConfig{
		Seed:           23,
		ReadFailProb:   0.01,
		ReadDelayProb:  0.2,
		ReadDelay:      2 * time.Millisecond,
		MaxConsecutive: 1,
	})
	// Server-side deadline long enough for a clean full scan (the storm's
	// pressure comes from the CLIENT deadlines below); never mutated after
	// the server starts, since straggler handlers read it concurrently.
	s.queryTimeout = 30 * time.Second
	s.adm = newAdmission(s.col, 4, 4)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Kill/restart cycling: closeDatasets tears down every open dataset
	// (treelet caches included) while requests are in flight; subsequent
	// requests must transparently reopen.
	stormDone := make(chan struct{})
	var closer sync.WaitGroup
	closer.Add(1)
	go func() {
		defer closer.Done()
		for {
			select {
			case <-stormDone:
				return
			case <-time.After(20 * time.Millisecond):
				s.closeDatasets()
			}
		}
	}()

	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				// Client-side deadline 5..80ms: some requests are rejected by
				// admission, some die queued, some mid-stream, a few finish.
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(5+i*5)*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, "GET",
					fmt.Sprintf("%s/points?box=0,0,0,%g,1,1", ts.URL, float64(i%4)+1), nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					// Read a little, then hang up mid-body.
					io.CopyN(io.Discard, resp.Body, 1024)
					resp.Body.Close()
					switch resp.StatusCode {
					case 200, 429, 503, 504:
					default:
						t.Errorf("client %d: unexpected status %d", i, resp.StatusCode)
					}
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	close(stormDone)
	closer.Wait()

	// The storm is over: no stalls are armed, so a patient client must get
	// the complete stream from the surviving server. Transient injected
	// read failures (MaxConsecutive=1) can still 500 a try; retry a few.
	var body []byte
	var status int
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := http.Get(ts.URL + "/points")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		if status == 200 && len(body) == total*12 {
			break
		}
	}
	if status != 200 || len(body) != total*12 {
		t.Fatalf("post-storm: status %d, %d bytes; want 200 with %d", status, len(body), total*12)
	}
	if fau.Delays() == 0 {
		t.Error("latency injection never fired during the storm")
	}
}

// TestChaosRestartRecovery is the kill/restart cycle: a server that served
// queries is shut down (datasets closed), and a fresh server over the same
// storage — as after a crash-restart — serves complete data. Access
// telemetry is in-process only, so the new server's counters start from
// zero.
func TestChaosRestartRecovery(t *testing.T) {
	leakcheck.Check(t)
	s, fau, total := faultyServer(t, pfs.FaultConfig{})
	ts := httptest.NewServer(s.routes())

	resp, err := http.Get(ts.URL + "/points")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != total*12 {
		t.Fatalf("pre-restart: status %d, %d bytes", resp.StatusCode, len(body))
	}

	// "Kill": drain, close handles, stop listening.
	ts.Close()
	s.closeDatasets()

	// "Restart": a new server process over the same storage.
	names, err := seriesOf(fau, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	s2 := &server{store: fau, names: names, open: map[int]*libbat.Dataset{},
		col: obs.New(), qcfg: libbat.QueryConfig{Workers: 2},
		access: libbat.NewAccessRegistry()}
	defer s2.closeDatasets()
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()

	resp, err = http.Get(ts2.URL + "/points")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != total*12 {
		t.Fatalf("post-restart: status %d, %d bytes; want 200 with %d", resp.StatusCode, len(body), total*12)
	}

	// The new server's recorder counts only its own query: nothing of the
	// previous run's telemetry was written to storage or read back.
	resp, err = http.Get(ts2.URL + "/debug/access")
	if err != nil {
		t.Fatal(err)
	}
	var snaps struct {
		Datasets []struct {
			Dataset string `json:"dataset"`
			Queries int64  `json:"queries_total"`
		} `json:"datasets"`
	}
	err = json.NewDecoder(resp.Body).Decode(&snaps)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps.Datasets) == 0 {
		t.Fatal("no access snapshots after restart")
	}
	if q := snaps.Datasets[0].Queries; q != 1 {
		t.Errorf("access snapshot after restart records %d queries, want 1", q)
	}
	files, err := fau.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range files {
		if !strings.HasSuffix(n, ".bat") && !strings.HasSuffix(n, ".batm") {
			t.Errorf("serving wrote %s to the dataset's storage", n)
		}
	}
}

// TestChaosStalledOpenWedgesNoStep: while step 1's metadata open stalls, a
// request for step 0, already open, answers within its query deadline; once
// the stall clears, step 1 opens. The stalled request itself may time out:
// its deadline runs through the open, which takes no context.
func TestChaosStalledOpenWedgesNoStep(t *testing.T) {
	leakcheck.Check(t)
	mem := pfs.NewMem()
	const ranks, perRank = 2, 500
	for step := 0; step < 2; step++ {
		err := libbat.Run(ranks, func(c *libbat.Comm) error {
			r := rand.New(rand.NewSource(int64(10*step + c.Rank())))
			lo := libbat.V3(float64(c.Rank()), 0, 0)
			local := libbat.NewParticleSet(libbat.NewSchema("val"), perRank)
			for i := 0; i < perRank; i++ {
				local.Append(lo.Add(libbat.V3(r.Float64(), r.Float64(), r.Float64())), []float64{float64(i)})
			}
			_, err := libbat.Write(c, mem, fmt.Sprintf("wedge-%04d", step), local,
				libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1))), libbat.DefaultWriteConfig(1<<20))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fau := pfs.NewFaulty(mem, pfs.FaultConfig{})
	names, err := seriesOf(fau, "wedge-")
	if err != nil || len(names) != 2 {
		t.Fatalf("series %v, %v", names, err)
	}
	s := &server{store: fau, names: names, open: map[int]*libbat.Dataset{},
		col: obs.New(), access: libbat.NewAccessRegistry(), queryTimeout: 200 * time.Millisecond}
	t.Cleanup(s.closeDatasets)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	// get requests step's points and reports a reply other than all of them.
	get := func(step int) error {
		resp, err := http.Get(fmt.Sprintf("%s/points?step=%d", ts.URL, step))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && (resp.StatusCode != 200 || len(body) != ranks*perRank*12) {
			err = fmt.Errorf("status %d, %d bytes", resp.StatusCode, len(body))
		}
		return err
	}
	if err := get(0); err != nil {
		t.Fatalf("step 0: %v", err)
	}

	fau.StallOpens(core.MetaFileName(names[1]))
	stalled := make(chan error, 1)
	go func() { stalled <- get(1) }()
	for fau.Stalled() == 0 {
		time.Sleep(time.Millisecond)
	}
	open := make(chan error, 1)
	go func() { open <- get(0) }()
	var step0 error
	answered := true
	select {
	case step0 = <-open:
	case <-time.After(2 * time.Second):
		answered = false
	}
	fau.ReleaseStalls()
	if !answered {
		t.Error("step 0 got no reply in 2s while step 1's open stalled")
		step0 = <-open
	}
	if step0 != nil {
		t.Errorf("step 0 during the stall: %v", step0)
	}
	<-stalled
	if err := get(1); err != nil {
		t.Errorf("step 1 after the stall cleared: %v", err)
	}
}
