package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"libbat"
	"libbat/internal/obs"
	"libbat/internal/oracle"
	"libbat/internal/pfs"
)

const serverRanks, serverPerRank = 4, 2000

// serverRankSet is rank's part of testServer's dataset: uniform in the unit
// cell at x = rank, val = x.
func serverRankSet(rank int) (*libbat.ParticleSet, libbat.Box) {
	r := rand.New(rand.NewSource(int64(rank)))
	lo := libbat.V3(float64(rank), 0, 0)
	local := libbat.NewParticleSet(libbat.NewSchema("val"), serverPerRank)
	for i := 0; i < serverPerRank; i++ {
		p := lo.Add(libbat.V3(r.Float64(), r.Float64(), r.Float64()))
		local.Append(p, []float64{p.X})
	}
	return local, libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1)))
}

// testServer writes a small in-memory dataset and wraps it in a server.
func testServer(t testing.TB) (*server, int) {
	t.Helper()
	store := pfs.NewMem()
	err := libbat.Run(serverRanks, func(c *libbat.Comm) error {
		local, bounds := serverRankSet(c.Rank())
		_, err := libbat.Write(c, store, "srv", local, bounds, libbat.DefaultWriteConfig(50<<10))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	names, err := seriesOf(store, "srv")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{store: store, names: names, open: map[int]*libbat.Dataset{}}
	t.Cleanup(func() {
		for _, ds := range s.open {
			ds.Close()
		}
	})
	return s, serverRanks * serverPerRank
}

func TestInfoEndpoint(t *testing.T) {
	s, total := testServer(t)
	rec := httptest.NewRecorder()
	s.info(rec, httptest.NewRequest("GET", "/info", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var got struct {
		Particles int64            `json:"particles"`
		Files     int              `json:"files"`
		Lower     []float64        `json:"lower"`
		Attrs     []map[string]any `json:"attrs"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Particles != int64(total) || got.Files < 1 || len(got.Attrs) != 1 {
		t.Errorf("info = %+v", got)
	}
}

func TestPointsEndpoint(t *testing.T) {
	s, total := testServer(t)
	rec := httptest.NewRecorder()
	s.points(rec, httptest.NewRequest("GET", "/points?quality=1", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body, _ := io.ReadAll(rec.Body)
	if len(body) != total*12 {
		t.Fatalf("body %d bytes, want %d", len(body), total*12)
	}
	// First point is a finite float triple.
	x := math.Float32frombits(binary.LittleEndian.Uint32(body))
	if math.IsNaN(float64(x)) || x < 0 || x > 4 {
		t.Errorf("x = %g out of domain", x)
	}
}

func TestPointsProgressiveWindow(t *testing.T) {
	s, total := testServer(t)
	sizes := 0
	prev := "0"
	for _, q := range []string{"0.3", "0.7", "1.0"} {
		rec := httptest.NewRecorder()
		s.points(rec, httptest.NewRequest("GET", "/points?prev="+prev+"&quality="+q, nil))
		body, _ := io.ReadAll(rec.Body)
		sizes += len(body)
		prev = q
	}
	if sizes != total*12 {
		t.Errorf("progressive windows returned %d bytes, want %d", sizes, total*12)
	}
	// An empty window — quality 0 loads nothing, as does prev >= quality —
	// is an empty 200, never the full dataset.
	for _, url := range []string{
		"/points?quality=0",
		"/points?quality=-1&prev=-2",
		"/points?prev=0.5&quality=0.5",
		"/points?prev=0.7&quality=0.3",
	} {
		rec := httptest.NewRecorder()
		s.points(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 || rec.Body.Len() != 0 {
			t.Errorf("%s: status %d with %d bytes, want an empty 200", url, rec.Code, rec.Body.Len())
		}
	}
}

func TestPointsFiltersAndAttr(t *testing.T) {
	s, _ := testServer(t)
	// box covering rank 0's cube only, with the extra attribute streamed.
	rec := httptest.NewRecorder()
	s.points(rec, httptest.NewRequest("GET", "/points?box=0,0,0,1,1,1&attr=0", nil))
	body, _ := io.ReadAll(rec.Body)
	if len(body)%16 != 0 || len(body) == 0 {
		t.Fatalf("body %d bytes not a multiple of 16", len(body))
	}
	n := len(body) / 16
	if n > 2100 || n < 1900 {
		t.Errorf("box query returned %d points, expected ~2000", n)
	}
	// filter val in [3,4] hits only rank 3's cube.
	rec = httptest.NewRecorder()
	s.points(rec, httptest.NewRequest("GET", "/points?filter=0,3,4", nil))
	body, _ = io.ReadAll(rec.Body)
	if n := len(body) / 12; n > 2100 || n < 1900 {
		t.Errorf("filter query returned %d points, expected ~2000", n)
	}
}

// pointsURL encodes q as a /points request.
func pointsURL(q libbat.Query) string {
	v := url.Values{}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	if b := q.Bounds; b != nil {
		v.Set("box", strings.Join([]string{f(b.Lower.X), f(b.Lower.Y), f(b.Lower.Z), f(b.Upper.X), f(b.Upper.Y), f(b.Upper.Z)}, ","))
	}
	for _, flt := range q.Filters {
		v.Add("filter", strconv.Itoa(flt.Attr)+","+f(flt.Min)+","+f(flt.Max))
	}
	if q.PrevQuality > 0 {
		v.Set("prev", f(q.PrevQuality))
	}
	if q.Quality > 0 {
		v.Set("quality", f(q.Quality))
	}
	return "/points?" + v.Encode()
}

// TestPointsMatchOracle: /points over HTTP returns exactly what the oracle
// allows for every kind of query the generator draws, and the answers to
// four progressive windows of each query tile it. The server runs once
// with the default engine and once with two unordered workers over a
// one-byte cache, where every treelet lookup evicts the rest; the second
// must return the first's answers.
func TestPointsMatchOracle(t *testing.T) {
	sets := make([]*libbat.ParticleSet, serverRanks)
	for r := range sets {
		sets[r], _ = serverRankSet(r)
	}
	ref := oracle.New(libbat.DefaultWriteConfig(0).BAT, sets...)
	first := map[string][]oracle.Row{} // the default server's answers by query kind
	for _, tc := range []struct {
		name       string
		qcfg       libbat.QueryConfig
		cacheBytes int64
	}{
		{"default", libbat.QueryConfig{}, 0},
		{"2 unordered workers, one-byte cache", libbat.QueryConfig{Workers: 2}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := testServer(t)
			s.qcfg, s.cacheBytes = tc.qcfg, tc.cacheBytes
			srv := httptest.NewServer(s.routes())
			defer srv.Close()
			get := func(q libbat.Query) []oracle.Row {
				resp, err := http.Get(srv.URL + pointsURL(q))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != 200 || len(body)%12 != 0 {
					t.Fatalf("%s: status %d, %d bytes, %v", pointsURL(q), resp.StatusCode, len(body), err)
				}
				rows := make([]oracle.Row, len(body)/12)
				for i := range rows {
					for k := range rows[i].Pos {
						rows[i].Pos[k] = math.Float32frombits(binary.LittleEndian.Uint32(body[12*i+4*k:]))
					}
				}
				return rows
			}
			for _, nq := range ref.Queries(3) {
				got := get(nq.Query)
				if err := ref.Check(nq.Query, got); err != nil {
					t.Errorf("%s query: %v", nq.Name, err)
				}
				if prev, ok := first[nq.Name]; !ok {
					first[nq.Name] = got
				} else if err := oracle.Same(prev, got); err != nil {
					t.Errorf("%s query: not the default server's answer: %v", nq.Name, err)
				}
				var tiled []oracle.Row
				for _, w := range oracle.Windows(nq.Query, 4) {
					tiled = append(tiled, get(w)...)
				}
				if err := oracle.Same(got, tiled); err != nil {
					t.Errorf("%s query: four windows do not tile it: %v", nq.Name, err)
				}
			}
		})
	}
}

func TestPointsBadParams(t *testing.T) {
	s, _ := testServer(t)
	for _, url := range []string{
		"/points?quality=abc",
		"/points?prev=x",
		"/points?box=1,2,3",
		"/points?filter=1",
		"/points?attr=99",
		"/points?quality=NaN",
		"/points?quality=Inf",
		"/points?prev=-Inf",
		"/points?box=0,0,0,1,NaN,1",
		"/points?filter=0,0,Inf",
		"/points?filter=0.7,0,1",
		"/points?filter=1,0,1",
		"/points?filter=-1,0,1",
		"/points?quality=0&filter=9,0,1",
	} {
		rec := httptest.NewRecorder()
		s.points(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

// FuzzPointsQuery drives /points with arbitrary raw query strings: the
// handler must not panic, must answer 200 or 400, and a 200 body must hold
// whole records, 12 bytes each (16 with ?attr=).
func FuzzPointsQuery(f *testing.F) {
	for _, seed := range []string{
		"", "quality=1", "quality=0.5", "prev=0&quality=0.3", "prev=0.3&quality=0.7",
		"quality=0", "quality=-1&prev=-2", "prev=0.5&quality=0.5", "prev=0.7&quality=0.3",
		"box=0,0,0,1,1,1&attr=0", "box=0,0,0,0.9,1,1", "box=3,0,0,4,1,1", "filter=0,3,4",
		"quality=abc", "prev=x", "box=1,2,3", "filter=1", "attr=99", "quality=NaN",
		"quality=Inf", "prev=-Inf", "box=0,0,0,1,NaN,1", "filter=0,0,Inf", "filter=0.7,0,1",
		"filter=1,0,1", "filter=-1,0,1", "quality=0&filter=9,0,1", "box=a,b,c,d,e,f",
		"step=0", "step=9",
	} {
		f.Add(seed)
	}
	s, _ := testServer(f)
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest("GET", "/points", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		s.points(rec, req)
		switch rec.Code {
		case 200:
			stride := 12
			if req.URL.Query().Get("attr") != "" {
				stride = 16
			}
			if n := rec.Body.Len(); n%stride != 0 {
				t.Fatalf("%q: 200 with %d bytes, not a multiple of %d", raw, n, stride)
			}
		case 400:
		default:
			t.Fatalf("%q: status %d: %s", raw, rec.Code, rec.Body.String())
		}
	})
}

func TestBadParamsJSONBody(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.points(rec, httptest.NewRequest("GET", "/points?box=a,b,c,d,e,f", nil))
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if body.Error == "" {
		t.Error("error body has no message")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	s.col = obs.New()
	points := s.instrument("/points", s.points)
	points(httptest.NewRecorder(), httptest.NewRequest("GET", "/points?quality=0.5", nil))
	points(httptest.NewRecorder(), httptest.NewRequest("GET", "/points?quality=abc", nil))

	rec := httptest.NewRecorder()
	s.metrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",path="/points"} 1`,
		`http_requests_total{code="400",path="/points"} 1`,
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_count{path="/points"} 2`,
		"# TYPE query_duration_seconds histogram",
		"points_streamed_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestPageServed(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	s.page(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.page(rec, httptest.NewRequest("GET", "/other", nil))
	if rec.Code != 404 {
		t.Errorf("non-root path: status %d", rec.Code)
	}
}

func TestTimeSeriesServing(t *testing.T) {
	// Two timesteps under a shared prefix; /info reports the series and
	// /points?step selects the dataset.
	store, err := libbat.DirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for step, per := range map[int]int{0: 500, 1: 900} {
		base := "ts-" + string(rune('0'+step))
		err := libbat.Run(2, func(c *libbat.Comm) error {
			lo := libbat.V3(float64(c.Rank()), 0, 0)
			local := libbat.NewParticleSet(libbat.NewSchema("v"), per)
			r := rand.New(rand.NewSource(int64(step*10 + c.Rank())))
			for i := 0; i < per; i++ {
				local.Append(lo.Add(libbat.V3(r.Float64(), r.Float64(), r.Float64())), []float64{1})
			}
			_, err := libbat.Write(c, store, base, local,
				libbat.NewBox(lo, lo.Add(libbat.V3(1, 1, 1))), libbat.DefaultWriteConfig(1<<20))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	names, err := seriesOf(store, "ts-")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("series = %v", names)
	}
	s := &server{store: store, names: names, open: map[int]*libbat.Dataset{}}
	for step, want := range map[string]int{"0": 1000, "1": 1800} {
		rec := httptest.NewRecorder()
		s.points(rec, httptest.NewRequest("GET", "/points?step="+step, nil))
		body, _ := io.ReadAll(rec.Body)
		if len(body) != want*12 {
			t.Errorf("step %s: %d bytes, want %d", step, len(body), want*12)
		}
	}
	// Out-of-range step.
	rec := httptest.NewRecorder()
	s.points(rec, httptest.NewRequest("GET", "/points?step=9", nil))
	if rec.Code != 400 {
		t.Errorf("bad step status %d", rec.Code)
	}
	// Missing prefix errors.
	if _, err := seriesOf(store, "nope"); err == nil {
		t.Error("missing prefix should error")
	}
}

// TestGracefulShutdown starts the real http.Server on an ephemeral port,
// confirms it serves, then shuts it down: Serve must return
// http.ErrServerClosed, in-flight-free shutdown must complete well inside
// the drain window, and the cached dataset handles must be released.
func TestGracefulShutdown(t *testing.T) {
	s, _ := testServer(t)
	s.col = obs.New()
	srv := newHTTPServer("127.0.0.1:0", s.routes())
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/info")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/info status %d", resp.StatusCode)
	}
	if len(s.open) == 0 {
		t.Fatal("expected a cached dataset after serving /info")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errc:
		if err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	s.closeDatasets()
	if len(s.open) != 0 {
		t.Errorf("%d datasets still cached after closeDatasets", len(s.open))
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/info"); err == nil {
		t.Error("request succeeded after shutdown")
	}
}

// TestServerTimeoutsConfigured pins the request-timeout policy: header and
// read limits short, the write limit long enough for a progressive stream.
func TestServerTimeoutsConfigured(t *testing.T) {
	srv := newHTTPServer(":0", nil)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Error("header/read/idle timeouts must be set")
	}
	if srv.WriteTimeout < time.Minute {
		t.Errorf("WriteTimeout %v too short to stream a full quality sweep", srv.WriteTimeout)
	}
}
