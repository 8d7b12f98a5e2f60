package bench

import (
	"libbat"
	"libbat/internal/perf"
)

// Env is everything an experiment run depends on besides the paper's own
// constants: which systems the weak-scaling figures are modeled on and how
// large the materialized (real files, real reads) runs are.
type Env struct {
	// Profiles are the systems Figures 5-7 are regenerated for.
	Profiles []perf.Profile
	// Vis sizes the materialized runs: ranks, time steps, target sizes and
	// where the datasets go.
	Vis VisReadConfig
	// Particles is the particle count of the materialized runs.
	Particles int64
}

// DefaultVisRead returns the scaled-down Table I/II configuration batbench
// runs: three time steps, the 1-8 MB target sizes.
func DefaultVisRead(ranks int, dir string) VisReadConfig {
	return VisReadConfig{
		Ranks:       ranks,
		Steps:       []int{0, 50, 100},
		TargetSizes: []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20},
		Dir:         dir,
	}
}

// Experiment is one entry of the evaluation: a key batbench selects it by
// and the function that regenerates its tables. On error Run returns the
// tables it had finished.
type Experiment struct {
	Key string
	Run func(Env) ([]*Table, error)
}

// Experiments returns every experiment of the evaluation — the only list of
// them — in the order batbench -all prints and numbers them under -outdir
// (the committed results/ directory is named in this order).
func Experiments() []Experiment {
	return []Experiment{
		{"filestats", func(Env) ([]*Table, error) { return one(FileStats(1536, 4501, 8<<20)) }},
		{"overhead", func(e Env) ([]*Table, error) { return one(Overhead(e.Vis, e.Particles)) }},
		{"extensions", func(Env) ([]*Table, error) {
			return seq(
				func() (*Table, error) {
					return CosmoCompare(CompareConfig{
						Profile:     perf.Stampede2(),
						Ranks:       1536,
						Steps:       []int{0, 250, 500, 750, 1000},
						TargetSizes: []int64{8 << 20, 32 << 20},
					}, 20_000_000, 24)
				},
				func() (*Table, error) {
					return RecommendCheck(perf.Stampede2(), []int{96, 384, 1536, 6144, 24576},
						UniformPerRank, UniformAttrs, libbat.RecommendTargetSize)
				})
		}},
		{"measured", func(e Env) ([]*Table, error) {
			return one(MeasuredBreakdown(e.Vis.Ranks, e.Particles, 2<<20))
		}},
		{"ablate", func(e Env) ([]*Table, error) {
			return seq(
				func() (*Table, error) { return AblateOverfull(1536, 2501, 8<<20) },
				func() (*Table, error) { return AblateSplitAxes(1536, 1001, 3<<20) },
				func() (*Table, error) { return AblateLOD(e.Vis.Ranks, e.Particles/2) },
				func() (*Table, error) { return AblateBitmapDictionary(int(e.Particles)) },
				func() (*Table, error) { return AblateAggregatorSpread(1536, 2501, 8<<20) })
		}},
		{"fig5", perProfile(Fig5WriteScaling)},
		{"fig6", perProfile(Fig6Breakdown)},
		{"fig7", perProfile(Fig7ReadScaling)},
		{"fig8", func(Env) ([]*Table, error) { return one(Fig8DatasetStats(1536)) }},
		{"fig9", func(Env) ([]*Table, error) { return pair(Fig9CoalBoiler(DefaultCoalBoilerCompare())) }},
		{"fig10", func(Env) ([]*Table, error) { return one(Fig10Breakdown(DefaultCoalBoilerCompare())) }},
		{"fig11", func(Env) ([]*Table, error) {
			small, err := pair(Fig11DamBreak(DefaultDamBreakCompare(false)))
			if err != nil {
				return small, err
			}
			big, err := pair(Fig11DamBreak(DefaultDamBreakCompare(true)))
			return append(small, big...), err
		}},
		{"fig12", func(Env) ([]*Table, error) { return one(Fig12Breakdown(DefaultDamBreakCompare(true))) }},
		{"fig13", func(e Env) ([]*Table, error) { return one(Fig13Quality(e.Vis, e.Particles)) }},
		{"table1", func(e Env) ([]*Table, error) {
			return one(Table1CoalBoiler(e.Vis, e.Particles/2, e.Particles))
		}},
		{"table2", func(e Env) ([]*Table, error) { return one(Table2DamBreak(e.Vis, e.Particles)) }},
	}
}

func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func pair(a, b *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{a, b}, nil
}

// seq runs the table functions in order and stops at the first error.
func seq(fns ...func() (*Table, error)) ([]*Table, error) {
	var out []*Table
	for _, fn := range fns {
		t, err := fn()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}

// perProfile regenerates one weak-scaling figure for every system of the Env.
func perProfile(fig func(WeakScalingConfig) (*Table, error)) func(Env) ([]*Table, error) {
	return func(e Env) ([]*Table, error) {
		var out []*Table
		for _, p := range e.Profiles {
			t, err := fig(DefaultWeakScaling(p))
			if err != nil {
				return out, err
			}
			out = append(out, t)
		}
		return out, nil
	}
}
