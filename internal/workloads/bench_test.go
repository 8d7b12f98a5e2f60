package workloads

import (
	"testing"

	"libbat/internal/particles"
)

// The generation benchmarks use the shapes of the four benchmark/ workloads
// (rank count, population, FormSteps = 1, growth pinned around the step), so
// the workloads.generate_s layer metric has a microbenchmark to rerun:
//
//	go test -run '^$' -bench 'Generate|Counts' ./internal/workloads/

const benchStep = 1

var sinkSet *particles.Set

// benchGenerate materializes the whole world serially once per iteration,
// from a fresh workload value so that the Counts memo is filled once per
// world, as in one benchmark set-up.
func benchGenerate(b *testing.B, build func() Workload) {
	var n int64
	for i := 0; i < b.N; i++ {
		w := build()
		for r := 0; r < w.Decomp().NumRanks(); r++ {
			sinkSet = w.Generate(benchStep, r)
			n += int64(sinkSet.Len())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/particle")
}

func benchCoal(b *testing.B, ranks int, total int64) *CoalBoiler {
	w, err := NewCoalBoiler(ranks)
	if err != nil {
		b.Fatal(err)
	}
	w.SetGrowth(benchStep-2000, benchStep+2000, total, total)
	return w
}

func benchCosmo(b *testing.B, ranks int, total int64) *Cosmo {
	w, err := NewCosmo(ranks, total, 24)
	if err != nil {
		b.Fatal(err)
	}
	w.FormSteps = 1
	return w
}

func BenchmarkGenerateUniform(b *testing.B) {
	benchGenerate(b, func() Workload {
		w, err := NewUniform(512, 800, 4)
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}

func BenchmarkGenerateCoalBoiler(b *testing.B) {
	benchGenerate(b, func() Workload { return benchCoal(b, 16, 1_000_000) })
}

func BenchmarkGenerateDamBreak(b *testing.B) {
	benchGenerate(b, func() Workload {
		w, err := NewDamBreak(16, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		return w
	})
}

func BenchmarkGenerateCosmo(b *testing.B) {
	benchGenerate(b, func() Workload { return benchCosmo(b, 64, 1_000_000) })
}

var sinkCounts []int64

// benchCounts times one un-memoized Counts at the paper's 1 536 ranks: a
// fresh workload value per iteration, so every call fills the memo.
func benchCounts(b *testing.B, build func() Workload) {
	for i := 0; i < b.N; i++ {
		sinkCounts = build().Counts(benchStep)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sinkCounts)), "ns/rank")
}

func BenchmarkCountsCoalBoiler(b *testing.B) {
	benchCounts(b, func() Workload { return benchCoal(b, 1536, 1_000_000) })
}

func BenchmarkCountsCosmo(b *testing.B) {
	benchCounts(b, func() Workload { return benchCosmo(b, 1536, 1_000_000) })
}
