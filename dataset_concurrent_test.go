package libbat

import (
	"fmt"
	"sync"
	"testing"

	"libbat/internal/leakcheck"
	"libbat/internal/oracle"
)

// TestDatasetConcurrentQuery: one Dataset, many goroutines, mixed query
// shapes. Dataset.files once raced here (run under -race via check.sh);
// every query must see the full count.
func TestDatasetConcurrentQuery(t *testing.T) {
	leakcheck.Check(t)
	store, total := writeTestDataset(t, "conc", 20*1024)
	ds, err := OpenDataset(store, "conc")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetQueryConfig(QueryConfig{Workers: 2})

	box := NewBox(V3(0.5, 0.5, 0), V3(3.5, 1.5, 1))
	wantBox, _ := oracle.New(DefaultWriteConfig(0).BAT, testWorld.Sets()...).Count(Query{Bounds: &box})

	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var n int64
			var q Query
			want := int64(total)
			if g%2 == 1 {
				q = Query{Bounds: &box}
				want = wantBox
			}
			if err := ds.Query(q, func(Vec3, []float64) error {
				n++
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if n != want {
				errs <- fmt.Errorf("goroutine %d visited %d, want %d", g, n, want)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := ds.CacheStats()
	if st.Misses == 0 {
		t.Errorf("dataset cache recorded no misses: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("dataset cache recorded no hits across %d rescans: %+v", goroutines, st)
	}
}

// TestDatasetCacheLimit: a budget no treelet fits still yields correct
// counts: every lookup keeps the treelet it returns and evicts the rest.
func TestDatasetCacheLimit(t *testing.T) {
	store, total := writeTestDataset(t, "lim", 20*1024)
	ds, err := OpenDataset(store, "lim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetCacheLimit(1)

	for pass := 0; pass < 2; pass++ {
		n, err := ds.Count(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(total) {
			t.Fatalf("pass %d: counted %d, want %d", pass, n, total)
		}
	}
	if st := ds.CacheStats(); st.Entries != 1 || st.Evictions == 0 {
		t.Fatalf("1-byte budget: %+v, want one resident treelet and evictions", st)
	}
}

// TestDatasetCacheBudget: SetCacheLimit is one budget over all leaf files,
// and it holds. An 8-leaf dataset under a quarter of its decoded size is
// scanned repeatedly by both engines and queried with overlapping boxes
// from several goroutines; after every query the resident bytes are within
// the limit plus one treelet (the one a lookup is returning is never
// evicted), treelets were evicted, and every count equals the oracle's.
// With one 16-way sharded cache per leaf and the budget dealt out as
// limit / leaves / 16 (before PR 19) each shard kept its newest treelet
// whatever its size, and this dataset sat at 100 % of its decoded size —
// as cosmo64-cachebound did at 35.72 MB under an 8 MiB limit.
func TestDatasetCacheBudget(t *testing.T) {
	leakcheck.Check(t)
	store, total := writeTestDataset(t, "budget", 20*1024)
	open := func() *Dataset {
		ds, err := OpenDataset(store, "budget")
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	// The oracle's answers, and the decoded size of the whole dataset.
	ref := oracle.New(DefaultWriteConfig(0).BAT, testWorld.Sets()...)
	boxes := []Box{
		NewBox(V3(0.5, 0.5, 0), V3(3.5, 1.5, 1)),
		NewBox(V3(0, 0, 0), V3(2.2, 1.1, 0.6)),
		NewBox(V3(1.8, 0.9, 0.4), V3(4, 2, 1)),
		NewBox(V3(1.5, 0, 0), V3(2.5, 2, 1)),
	}
	wantBox := make([]int64, len(boxes))
	for i := range boxes {
		wantBox[i], _ = ref.Count(Query{Bounds: &boxes[i]})
	}
	unbounded := open()
	defer unbounded.Close()
	if n, err := unbounded.Count(Query{}); err != nil || n != int64(total) {
		t.Fatalf("unbounded scan: %d, %v; want %d", n, err, total)
	}
	decoded := unbounded.CacheStats().Bytes

	// The largest parsed treelet: under a 1-byte budget the serial engine
	// keeps exactly the treelet whose particles it is visiting.
	probe := open()
	defer probe.Close()
	probe.SetCacheLimit(1)
	probe.SetQueryConfig(QueryConfig{Workers: 1})
	var largest int64
	if err := probe.Query(Query{}, func(Vec3, []float64) error {
		largest = max(largest, probe.CacheStats().Bytes)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	ds := open()
	defer ds.Close()
	limit := decoded / 4
	if ds.NumFiles() < 4 || largest == 0 || 2*largest > limit {
		t.Fatalf("world too small for the test: %d leaves, decoded %d B, largest treelet %d B", ds.NumFiles(), decoded, largest)
	}
	ds.SetCacheLimit(limit)
	withinBudget := func(what string) {
		if st := ds.CacheStats(); st.Bytes > limit+largest {
			t.Errorf("%s: %d B resident, limit %d B + largest treelet %d B (decoded %d B): %+v",
				what, st.Bytes, limit, largest, decoded, st)
		}
	}
	for _, workers := range []int{1, 4} {
		ds.SetQueryConfig(QueryConfig{Workers: workers})
		for pass := 0; pass < 3; pass++ {
			n, err := ds.Count(Query{})
			if err != nil || n != int64(total) {
				t.Fatalf("workers %d pass %d: counted %d, %v; want %d", workers, pass, n, err, total)
			}
			withinBudget(fmt.Sprintf("scan, workers %d, pass %d", workers, pass))
		}
	}

	const goroutines, rounds = 6, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(boxes)
				n, err := ds.Count(Query{Bounds: &boxes[i]})
				if err != nil || n != wantBox[i] {
					t.Errorf("goroutine %d box %d: counted %d, %v; want %d", g, i, n, err, wantBox[i])
				}
				withinBudget(fmt.Sprintf("goroutine %d box %d", g, i))
			}
		}(g)
	}
	wg.Wait()
	if st := ds.CacheStats(); st.Evictions == 0 {
		t.Errorf("no evictions under a limit of 1/4 of the decoded size: %+v", st)
	}

	// Close empties the cache; the dataset reopens its leaves on demand.
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ds.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after Close: %+v, want an empty cache", st)
	}
	if n, err := ds.Count(Query{Bounds: &boxes[0]}); err != nil || n != wantBox[0] {
		t.Errorf("after Close: counted %d, %v; want %d", n, err, wantBox[0])
	}
	withinBudget("after reopen")
}
