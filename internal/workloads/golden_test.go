package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"libbat/internal/particles"
)

// hashSet feeds every bit a generator produced into h: the count, the three
// float32 coordinate columns and every attribute column's float64 bits.
func hashSet(h hash.Hash, s *particles.Set) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(s.Len()))
	for _, col := range [][]float32{s.X, s.Y, s.Z} {
		for _, v := range col {
			put(uint64(math.Float32bits(v)))
		}
	}
	for _, col := range s.Attrs {
		for _, v := range col {
			put(math.Float64bits(v))
		}
	}
}

// setDigest is the SHA-256 of one set's bits.
func setDigest(s *particles.Set) string {
	h := sha256.New()
	hashSet(h, s)
	return hex.EncodeToString(h.Sum(nil))
}

// worldDigest is the SHA-256 of Counts(step) followed by every rank's
// generated set, in rank order.
func worldDigest(w Workload, step int) string {
	h := sha256.New()
	var b [8]byte
	for _, c := range w.Counts(step) {
		binary.LittleEndian.PutUint64(b[:], uint64(c))
		h.Write(b[:])
	}
	for r := 0; r < w.Decomp().NumRanks(); r++ {
		hashSet(h, w.Generate(step, r))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins every generator's output bit for bit. The digests
// were recorded at commit ab46756, before the cut-off mixture evaluator and
// the Counts memo existed; a generator change that moves one bit of one
// particle fails here (and would move every BENCH figure and every
// stored_bytes_per_particle downstream).
func TestGoldenDigests(t *testing.T) {
	uniform, err := NewUniform(8, 700, 5)
	if err != nil {
		t.Fatal(err)
	}
	coal, err := NewCoalBoiler(12)
	if err != nil {
		t.Fatal(err)
	}
	coal.SetGrowth(100, 900, 6_000, 30_000)
	dam, err := NewDamBreak(8, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	cosmo, err := NewCosmo(27, 40_000, 24)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark's shape: halos fully formed at every step >= 1.
	formed, err := NewCosmo(8, 20_000, 24)
	if err != nil {
		t.Fatal(err)
	}
	formed.FormSteps = 1
	// No background at all: 1-cl == 0, so the evaluator may skip nothing.
	allHalo, err := NewCosmo(8, 20_000, 24)
	if err != nil {
		t.Fatal(err)
	}
	allHalo.MaxClustered = 1

	// The benchmark's -quick coal shape: growth pinned around step = seed.
	quickCoal := func(seed int) Workload {
		w, err := NewCoalBoiler(8)
		if err != nil {
			t.Fatal(err)
		}
		w.SetGrowth(seed-2000, seed+2000, 20_000, 20_000)
		return w
	}

	type golden struct {
		name string
		w    Workload
		step int
		want string
	}
	cases := []golden{
		{"uniform", uniform, 0, "afb13b2c311fff8352808837dec6274ed69a925cf4a95f8fe50b440b2ad032d9"},
		{"uniform", uniform, 3, "a0429328d3649c9461c8b0732007b537f4581b2a61e94466af59b65750f7573c"},
		{"coal", coal, 100, "facb17c554cc2689e75c1b184ea00e6b48e09e36ed86279cb59504b5c2876670"},
		{"coal", coal, 417, "1a369ed4d813e0a15d2dfe2d3e7de6eab44ea298fc5a01b427b67e870def774a"},
		{"coal", coal, 900, "19b1e64428828686039e3166d4137c9c47c9734a3173bb29f8615361236ce1a8"},
		{"dam", dam, 0, "0b2c7ab42a03f65e0dc29aef7f8ef19229e5f7d1f88f34f0af5af6c20522213f"},
		{"dam", dam, 600, "b2113c15ec49057d8508acddc9f2aa78f76bd4eced98e3150b784dfda769f7fd"},
		{"dam", dam, 2500, "11262bd9461c96a6efbabbf5e6e820ec13798dd89481ad5e76d7b32669682957"},
		{"cosmo", cosmo, 0, "61b12d0e3ac81c634a5fce4206b2d29f4e2bdc504a152900bdc67e59f75555ef"},    // cl = 0: background only
		{"cosmo", cosmo, 350, "920687e4fd86c9e4b657785a3b3e4fc6cc5fe62b32c2967a3d316632f778c883"},  // partly formed
		{"cosmo", cosmo, 1000, "227f8111bb5a714f04845fd237212a454aec8bc02d49a38c1cd4c3210a9d50c5"}, // fully formed, cl = MaxClustered
		{"cosmo-formed", formed, 7, "ce79b11b1e13694b56ecb8bb66cc6ee87514bd95e5ba7bb017b10dc6ef0ba180"},
		{"cosmo-all-halo", allHalo, 1000, "70b1b42cf5aedd92b625f8593b083884c8ddbf51927f2c7cf7e8ba86ce1b69a0"},
		// Recorded at commit 362fce3, before Generate's per-cell density bracket.
		{"coal-quick", quickCoal(1), 1, "dada19a6b68173a88cdbafaca81c92717b618340f361cb2f361fa5a7149f55bc"},
		{"coal-quick", quickCoal(2), 2, "cf9a291da074316f5b7e3415a7bc324191c32192a03644ad04f75cb4edbae376"},
		{"coal-quick", quickCoal(3), 3, "98d53e0400552512d405df3b3222cb89296752a0bb2992329eb6bbe738acb0be"},
	}
	if !testing.Short() {
		// The benchmark's coal16-v2 world at seed 1, and the paper's
		// 1 536-rank world at its first step (4.6 M particles).
		coal16, err := NewCoalBoiler(16)
		if err != nil {
			t.Fatal(err)
		}
		coal16.SetGrowth(1-2000, 1+2000, 1_000_000, 1_000_000)
		paper, err := NewCoalBoiler(1536)
		if err != nil {
			t.Fatal(err)
		}
		// The benchmark's other two generated worlds at seed 1, recorded at
		// commit 3d0fb96.
		uniform512, err := NewUniform(512, 800, 4)
		if err != nil {
			t.Fatal(err)
		}
		cosmo64, err := NewCosmo(64, 1_000_000, 24)
		if err != nil {
			t.Fatal(err)
		}
		cosmo64.FormSteps = 1
		cases = append(cases,
			golden{"coal16-v2", coal16, 1, "619e2f76251c97e87a36b2380bce6b784455834040cdd97c56d68380a1a957f5"},
			golden{"coal-1536", paper, 501, "ebc43dde38fbbfc10e514cc011ae624f336f48a0f8b7ca6083a5f8e266519217"},
			golden{"uniform512-plan", uniform512, 1, "433d554ecf726aed720c2e0980d5db99f8d2c6c406d56bfec17408e941b46004"},
			golden{"cosmo64-cachebound", cosmo64, 1, "a008a5c3260f8ba10b4fc75f0f276151f44f05a7310f7f0a00f70aaa223b34d4"},
		)
	}
	for _, c := range cases {
		if got := worldDigest(c.w, c.step); got != c.want {
			t.Errorf("%s step %d: digest %s, want %s", c.name, c.step, got, c.want)
		}
	}
}
