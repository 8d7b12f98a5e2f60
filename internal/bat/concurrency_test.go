package bat

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"libbat/internal/geom"
)

// TestConcurrentQuerySharedFile is the regression test for the read-path
// data race: many goroutines querying one File concurrently, each with a
// different engine configuration. Run under -race (check.sh does) this
// fails on the pre-cache reader and passes with the treelet cache.
func TestConcurrentQuerySharedFile(t *testing.T) {
	s, domain := randomSet(4000, 11)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()

	box := geom.NewBox(geom.V3(0.2, 0.2, 0.2), geom.V3(0.8, 0.8, 0.8))
	want, err := f.CountMatching(Query{Bounds: &box})
	if err != nil {
		t.Fatal(err)
	}

	cfgs := []QueryConfig{
		{Workers: 1},
		{Workers: 2},
		{Workers: 4},
		{Workers: -1},
	}
	const perCfg = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*perCfg)
	for _, cfg := range cfgs {
		for r := 0; r < perCfg; r++ {
			wg.Add(1)
			go func(cfg QueryConfig) {
				defer wg.Done()
				var n int64
				_, err := f.QueryWithConfig(Query{Bounds: &box}, cfg, func(geom.Vec3, []float64) error {
					n++
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				if n != want {
					errs <- fmt.Errorf("cfg %+v visited %d particles, want %d", cfg, n, want)
				}
			}(cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestParallelVisitorError: a visitor error aborts a query promptly at any
// worker count, is returned verbatim, leaves no goroutines wedged (the race
// detector and test timeout police that), and QueryStats.Visited counts the
// particles delivered — not the ones collected ahead of the visitor.
func TestParallelVisitorError(t *testing.T) {
	s, domain := randomSet(4000, 31)
	f, _ := buildAndOpen(t, s, domain, DefaultBuildConfig())
	defer f.Close()

	boom := errors.New("stop right there")
	for _, cfg := range []QueryConfig{
		{Workers: 1},
		{Workers: 4},
	} {
		var n int
		st, err := f.QueryWithConfig(Query{}, cfg, func(geom.Vec3, []float64) error {
			n++
			if n == 100 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("cfg %+v: got err %v, want %v", cfg, err, boom)
		}
		if n != 100 {
			t.Fatalf("cfg %+v: visitor called %d times after aborting at 100", cfg, n)
		}
		if st.Visited != 100 {
			t.Fatalf("cfg %+v: Visited = %d, want the 100 particles delivered", cfg, st.Visited)
		}
	}
}
