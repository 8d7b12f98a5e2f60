// Package workloads generates the particle distributions used in the
// paper's evaluation (§VI): a fixed uniform distribution (the IOR-style
// weak scaling baseline), a synthetic Coal Boiler (Uintah-like particle
// injection with a time-growing, strongly clustered population), and a
// synthetic Dam Break (ExaMPM/Cabana-like fixed population moving through
// the domain over time).
//
// Each workload exposes two fidelities:
//
//   - Counts/RankInfos: cheap per-rank particle counts and bounds at a
//     timestep, enough to drive the aggregation algorithms and the modeled
//     scaling benchmarks at tens of thousands of ranks;
//   - Generate: fully materialized, deterministic per-rank particle sets
//     for end-to-end writes, reads, and the visualization benchmarks.
package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"libbat/internal/aggtree"
	"libbat/internal/geom"
	"libbat/internal/particles"
)

// Decomp is a regular grid domain decomposition across ranks, the layout
// used by Uintah (3D grid) and ExaMPM (2D grid along x/y).
type Decomp struct {
	Domain geom.Box
	Dims   [3]int
}

// NewDecomp builds a decomposition with the given per-axis rank counts.
func NewDecomp(domain geom.Box, nx, ny, nz int) (*Decomp, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("workloads: invalid decomposition %dx%dx%d", nx, ny, nz)
	}
	return &Decomp{Domain: domain, Dims: [3]int{nx, ny, nz}}, nil
}

// Factor3D chooses a near-cubic factorization of n ranks: the triple with
// the least a·b + b·c + a·c (surface to volume), largest factor first. It
// never sees a domain; a caller with a non-cubic one orients the factors
// itself (NewCoalBoiler puts the largest on the tall z axis).
func Factor3D(n int) (nx, ny, nz int) {
	best := [3]int{n, 1, 1}
	bestCost := math.Inf(1)
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			// Cost: surface-to-volume (prefer cubes).
			cost := float64(a*b + b*c + a*c)
			if cost < bestCost {
				bestCost = cost
				best = [3]int{c, b, a}
			}
		}
	}
	return best[0], best[1], best[2]
}

// NumRanks returns the total rank count.
func (d *Decomp) NumRanks() int { return d.Dims[0] * d.Dims[1] * d.Dims[2] }

// Coords returns the grid coordinates of a rank (x-major ordering).
func (d *Decomp) Coords(rank int) (ix, iy, iz int) {
	ix = rank % d.Dims[0]
	iy = (rank / d.Dims[0]) % d.Dims[1]
	iz = rank / (d.Dims[0] * d.Dims[1])
	return ix, iy, iz
}

// RankBounds returns the spatial region owned by a rank.
func (d *Decomp) RankBounds(rank int) geom.Box {
	ix, iy, iz := d.Coords(rank)
	size := d.Domain.Size()
	lo := geom.Vec3{
		X: d.Domain.Lower.X + size.X*float64(ix)/float64(d.Dims[0]),
		Y: d.Domain.Lower.Y + size.Y*float64(iy)/float64(d.Dims[1]),
		Z: d.Domain.Lower.Z + size.Z*float64(iz)/float64(d.Dims[2]),
	}
	hi := geom.Vec3{
		X: d.Domain.Lower.X + size.X*float64(ix+1)/float64(d.Dims[0]),
		Y: d.Domain.Lower.Y + size.Y*float64(iy+1)/float64(d.Dims[1]),
		Z: d.Domain.Lower.Z + size.Z*float64(iz+1)/float64(d.Dims[2]),
	}
	return geom.NewBox(lo, hi)
}

// Workload is a time-varying particle distribution over a decomposition.
type Workload interface {
	// Name identifies the workload in benchmark output.
	Name() string
	// Schema describes the particle attributes.
	Schema() particles.Schema
	// Decomp returns the rank decomposition.
	Decomp() *Decomp
	// Counts returns the per-rank particle counts at a timestep.
	Counts(step int) []int64
	// Generate materializes rank's particles at a timestep. The result is
	// deterministic in (step, rank) and has exactly Counts(step)[rank]
	// particles.
	Generate(step, rank int) *particles.Set
}

// RankInfos assembles the aggregation-tree input for a workload timestep.
func RankInfos(w Workload, step int) []aggtree.RankInfo {
	d := w.Decomp()
	counts := w.Counts(step)
	infos := make([]aggtree.RankInfo, d.NumRanks())
	for r := range infos {
		infos[r] = aggtree.RankInfo{Rank: r, Bounds: d.RankBounds(r), Count: counts[r]}
	}
	return infos
}

// RankInput returns what each rank of a collective write of one timestep
// contributes — its generated particles and its subdomain — in the shape
// core.WriteWorld takes.
func RankInput(w Workload, step int) func(rank int) (*particles.Set, geom.Box) {
	return func(rank int) (*particles.Set, geom.Box) {
		return w.Generate(step, rank), w.Decomp().RankBounds(rank)
	}
}

// TotalCount sums a workload's particles at a timestep.
func TotalCount(w Workload, step int) int64 {
	var n int64
	for _, c := range w.Counts(step) {
		n += c
	}
	return n
}

// countsMemo holds the last per-rank counts one workload value computed,
// so that the P Generate calls that materialize a world share one
// apportionment instead of each redoing all P ranks. The key is every value
// the counts depend on that can change after construction: workloads derive
// it from the step and their exported fields on each call, so a caller that
// mutates a field between calls gets fresh counts. One entry is enough:
// worlds are materialized a step at a time.
type countsMemo[K comparable] struct {
	mu     sync.Mutex
	key    K
	counts []int64 // nil until the first fill
	fills  int     // times compute ran; read by tests
}

// get returns the counts for key, running compute under the lock if the
// memo holds another key's, so concurrent callers wait for one computation
// rather than each starting their own. The result is shared: callers must
// not modify it.
func (m *countsMemo[K]) get(key K, compute func() []int64) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.counts == nil || m.key != key {
		m.counts, m.key = compute(), key
		m.fills++
	}
	return m.counts
}

// octantWeights integrates density over every rank's bounds by the midpoint
// rule on a 2^3 grid.
func octantWeights(d *Decomp, density func(geom.Vec3) float64) []float64 {
	weights := make([]float64, d.NumRanks())
	for r := range weights {
		b := d.RankBounds(r)
		sz := b.Size()
		var sum float64
		for ix := 0; ix < 2; ix++ {
			for iy := 0; iy < 2; iy++ {
				for iz := 0; iz < 2; iz++ {
					sum += density(geom.Vec3{
						X: b.Lower.X + sz.X*(0.25+0.5*float64(ix)),
						Y: b.Lower.Y + sz.Y*(0.25+0.5*float64(iy)),
						Z: b.Lower.Z + sz.Z*(0.25+0.5*float64(iz)),
					})
				}
			}
		}
		weights[r] = sum * b.Volume()
	}
	return weights
}

// rng returns a deterministic generator for (name, step, rank).
func rng(seed, step, rank int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1e9 + int64(step)*1e6 + int64(rank)))
}

// apportion distributes total particles over weights using the largest
// remainder method, so counts are deterministic and sum exactly to total.
func apportion(total int64, weights []float64) []int64 {
	var wsum float64
	for _, w := range weights {
		if w > 0 {
			wsum += w
		}
	}
	out := make([]int64, len(weights))
	if wsum == 0 || total == 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	var assigned int64
	rems := make([]rem, 0, len(weights))
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(total) * w / wsum
		fl := int64(exact)
		out[i] = fl
		assigned += fl
		rems = append(rems, rem{idx: i, frac: exact - float64(fl)})
	}
	// Hand out the remaining particles to the largest fractional parts;
	// stable tie-break on index keeps it deterministic.
	left := total - assigned
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		return rems[a].idx < rems[b].idx
	})
	for k := int64(0); k < left && int(k) < len(rems); k++ {
		out[rems[k].idx]++
	}
	return out
}
