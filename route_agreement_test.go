package libbat

import (
	"context"
	"fmt"
	"testing"

	"libbat/internal/oracle"
)

// datasetRoute is one way to ask a written dataset: it returns one answer,
// or one per rank of a collective read.
type datasetRoute struct {
	name string
	ask  func(q Query) ([][]oracle.Row, error)
}

// datasetRoutes are every route to an answer over the dataset base in
// store: Dataset.QueryCtx serially and on two workers over an unbounded
// cache and on four workers over a one-byte cache, and the collective
// ReadQueryCtx on 1 and 4 ranks, where every rank asks the same query.
func datasetRoutes(t *testing.T, store Storage, base string) []datasetRoute {
	t.Helper()
	open := func(cfg QueryConfig, cacheLimit int64) *Dataset {
		ds, err := OpenDataset(store, base)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		ds.SetQueryConfig(cfg)
		ds.SetCacheLimit(cacheLimit)
		return ds
	}
	dataset := func(ds *Dataset) func(Query) ([][]oracle.Row, error) {
		return func(q Query) ([][]oracle.Row, error) {
			var rows []oracle.Row
			err := ds.QueryCtx(context.Background(), q, oracle.Collect(&rows))
			return [][]oracle.Row{rows}, err
		}
	}
	collective := func(ranks int) func(Query) ([][]oracle.Row, error) {
		return func(q Query) ([][]oracle.Row, error) {
			answers := make([][]oracle.Row, ranks)
			err := Run(ranks, func(c *Comm) error {
				set, _, err := ReadQueryCtx(context.Background(), c, store, base, q)
				if err != nil {
					return err
				}
				answers[c.Rank()] = oracle.RowsOf(set)
				return nil
			})
			return answers, err
		}
	}
	return []datasetRoute{
		{"dataset", dataset(open(QueryConfig{}, 0))},
		{"dataset, 2 workers", dataset(open(QueryConfig{Workers: 2}, 0))},
		{"dataset, 4 workers, one-byte cache", dataset(open(QueryConfig{Workers: 4}, 1))},
		{"collective, 1 rank", collective(1)},
		{"collective, 4 ranks", collective(4)},
	}
}

// checkRoutes requires every route, and every rank of a collective one, to
// return the first route's answer to q, and the answers to q's four
// progressive windows together to be that same answer; it holds the one
// answer against the oracle. Where the oracle leaves a choice (which
// particles a quality window takes, which edge particles a lossy filter
// keeps), every route must still make the same one.
func checkRoutes(t *testing.T, ref *oracle.Reference, routes []datasetRoute, q Query) {
	t.Helper()
	var first []oracle.Row
	for ri, r := range routes {
		answers, err := r.ask(q)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if ri == 0 {
			first = answers[0]
		}
		tiled := make([][]oracle.Row, len(answers))
		for _, w := range oracle.Windows(q, 4) {
			parts, err := r.ask(w)
			if err != nil {
				t.Fatalf("%s, window %+v: %v", r.name, w, err)
			}
			for k := range tiled {
				tiled[k] = append(tiled[k], parts[k]...)
			}
		}
		for k := range answers {
			if err := oracle.Same(first, answers[k]); err != nil {
				t.Errorf("%s, answer %d is not the %s route's: %v", r.name, k, routes[0].name, err)
			}
			if err := oracle.Same(answers[k], tiled[k]); err != nil {
				t.Errorf("%s, answer %d: four windows do not tile it: %v", r.name, k, err)
			}
		}
	}
	if err := ref.Check(q, first); err != nil {
		t.Errorf("%s: %v", routes[0].name, err)
	}
}

// TestRouteAgreement: every route to an answer returns the same multiset,
// and it is what the oracle allows for the written input, for each kind of
// query the generator draws.
// The "lossless" case is a write without error bounds, the "lossy" case one
// with declared error bounds, where attribute values may differ by the bound
// and a filter's edge particles may go either way.
func TestRouteAgreement(t *testing.T) {
	for _, mode := range []string{"lossless", "lossy"} {
		t.Run(mode, func(t *testing.T) {
			cfg := DefaultWriteConfig(20 * 1024)
			if mode == "lossy" {
				cfg.BAT.Compress = true
				cfg.BAT.AttrErrorBounds = []float64{1e-3, 1e-3}
			}
			store := writeTestDatasetCfg(t, "ra", cfg)
			ref := oracle.New(cfg.BAT, testWorld.Sets()...)
			routes := datasetRoutes(t, store, "ra")
			ds, err := OpenDataset(store, "ra")
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			for _, nq := range ref.Queries(1) {
				t.Run(nq.Name, func(t *testing.T) {
					if _, may := ref.Count(nq.Query); may == 0 {
						t.Fatal("the query selects nothing; the row tests nothing")
					}
					checkRoutes(t, ref, routes, nq.Query)
					n, err := ds.CountCtx(context.Background(), nq.Query)
					if must, may := ref.Count(nq.Query); err != nil || n < must || n > may {
						t.Errorf("Count = %d, %v; oracle allows [%d, %d]", n, err, must, may)
					}
				})
			}
		})
	}
}

// TestGeneratedCasesAgree writes each generated case — its world, target
// file size, aggregation strategy and leaf layout — collectively and holds
// every dataset route to the oracle on the case's queries.
func TestGeneratedCasesAgree(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := oracle.Generate(seed)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			cfg := DefaultWriteConfig(c.Target)
			cfg.BAT = c.Build
			if c.AUG {
				cfg.Strategy = AUG
			}
			store := MemStorage()
			err := Run(c.Ranks, func(comm *Comm) error {
				local, bounds := c.Rank(comm.Rank())
				_, err := Write(comm, store, "gen", local, bounds, cfg)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := c.Reference()
			routes := datasetRoutes(t, store, "gen")
			for _, nq := range ref.Queries(seed) {
				checkRoutes(t, ref, routes, nq.Query)
			}
		})
	}
}
