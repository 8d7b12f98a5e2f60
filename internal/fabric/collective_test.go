package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"libbat/internal/obs"
)

// Tree-structured collectives must behave identically to the old linear
// ones for every root and for awkward (non-power-of-two, prime, tiny)
// world sizes, since the binomial routing is the only thing that changed.

func TestGatherTreeAllRootsAndSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17} {
		for root := 0; root < size; root++ {
			err := Run(size, func(c *Comm) error {
				data := []byte(fmt.Sprintf("rank-%d", c.Rank()))
				out := c.Gather(root, data)
				if c.Rank() != root {
					if out != nil {
						return fmt.Errorf("non-root got data")
					}
					return nil
				}
				if len(out) != size {
					return fmt.Errorf("got %d entries", len(out))
				}
				for i, d := range out {
					want := fmt.Sprintf("rank-%d", i)
					if string(d) != want {
						return fmt.Errorf("gather[%d] = %q, want %q", i, d, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size=%d root=%d: %v", size, root, err)
			}
		}
	}
}

func TestScattervTreeAllRootsAndSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 6, 8, 11, 16} {
		for root := 0; root < size; root++ {
			err := Run(size, func(c *Comm) error {
				var parts [][]byte
				if c.Rank() == root {
					for i := 0; i < size; i++ {
						// Variable-length parts so sub-pack routing is
						// actually exercised.
						p := bytes.Repeat([]byte{byte(i)}, i%4+1)
						parts = append(parts, p)
					}
				}
				got := c.Scatterv(root, parts)
				want := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()%4+1)
				if !bytes.Equal(got, want) {
					return fmt.Errorf("rank %d got %v, want %v", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size=%d root=%d: %v", size, root, err)
			}
		}
	}
}

func TestBcastTreeAllRootsAndSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 9, 16, 17} {
		for root := 0; root < size; root++ {
			err := Run(size, func(c *Comm) error {
				var data []byte
				if c.Rank() == root {
					data = []byte(fmt.Sprintf("from-%d", root))
				}
				got := c.Bcast(root, data)
				if string(got) != fmt.Sprintf("from-%d", root) {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("size=%d root=%d: %v", size, root, err)
			}
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13, 16} {
		err := Run(size, func(c *Comm) error {
			buf := binary.LittleEndian.AppendUint64(nil, uint64(c.Rank()+1))
			out := c.Allreduce(buf, func(acc, next []byte) []byte {
				s := binary.LittleEndian.Uint64(acc) + binary.LittleEndian.Uint64(next)
				binary.LittleEndian.PutUint64(acc, s)
				return acc
			})
			want := uint64(size * (size + 1) / 2)
			if got := binary.LittleEndian.Uint64(out); got != want {
				return fmt.Errorf("rank %d: sum = %d, want %d", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

// TestAllreduceFoldOrder proves the documented guarantee: combine folds
// contributions in ascending rank order, so even a non-commutative combine
// (here: byte-slice concatenation) gives the same answer on every rank and
// on every run.
func TestAllreduceFoldOrder(t *testing.T) {
	for _, size := range []int{2, 3, 5, 8, 12, 16} {
		err := Run(size, func(c *Comm) error {
			out := c.Allreduce([]byte{byte(c.Rank())}, func(acc, next []byte) []byte {
				return append(acc, next...)
			})
			if len(out) != size {
				return fmt.Errorf("rank %d: len %d", c.Rank(), len(out))
			}
			for i, b := range out {
				if b != byte(i) {
					return fmt.Errorf("rank %d: out = %v, fold not in rank order", c.Rank(), out)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

func TestAlltoallv(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13} {
		err := Run(size, func(c *Comm) error {
			parts := make([][]byte, size)
			for d := range parts {
				// Distinct (src, dst)-dependent payloads of varying length.
				parts[d] = bytes.Repeat([]byte{byte(c.Rank()*31 + d)}, d+1)
			}
			got := c.Alltoallv(parts)
			if len(got) != size {
				return fmt.Errorf("got %d parts", len(got))
			}
			for src, p := range got {
				want := bytes.Repeat([]byte{byte(src*31 + c.Rank())}, c.Rank()+1)
				if !bytes.Equal(p, want) {
					return fmt.Errorf("rank %d from %d: got %v want %v", c.Rank(), src, p, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size=%d: %v", size, err)
		}
	}
}

// TestAlltoallvBackToBack checks that consecutive Alltoallv calls stay
// correctly paired under per-(src,dst,tag) FIFO ordering.
func TestAlltoallvBackToBack(t *testing.T) {
	const rounds = 4
	err := Run(6, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			parts := make([][]byte, c.Size())
			for d := range parts {
				parts[d] = []byte{byte(round), byte(c.Rank()), byte(d)}
			}
			got := c.Alltoallv(parts)
			for src, p := range got {
				want := []byte{byte(round), byte(src), byte(c.Rank())}
				if !bytes.Equal(p, want) {
					return fmt.Errorf("round %d rank %d from %d: got %v", round, c.Rank(), src, p)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPerOpCounters checks the bat_fabric_<op>_bytes/calls series: every
// rank records one call per collective entered, and the summed byte series
// matches each payload byte being charged exactly once at its sender.
func TestPerOpCounters(t *testing.T) {
	col := obs.New()
	f := New(4)
	f.SetObserver(col)
	err := f.Run(func(c *Comm) error {
		c.Gather(0, make([]byte, 10))
		c.Bcast(0, make([]byte, 8))
		c.Allreduce([]byte{1}, func(acc, next []byte) []byte { return acc })
		parts := make([][]byte, 4)
		for i := range parts {
			parts[i] = make([]byte, 2)
		}
		c.Alltoallv(parts)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	calls := map[string]int64{}
	bytesBy := map[string]int64{}
	for _, ctr := range snap.Counters {
		if n, ok := cutPrefixSuffix(ctr.Name, "bat_fabric_", "_calls"); ok {
			calls[n] += ctr.Value
		}
		if n, ok := cutPrefixSuffix(ctr.Name, "bat_fabric_", "_bytes"); ok {
			bytesBy[n] += ctr.Value
		}
	}
	for _, op := range []string{"gather", "bcast", "allreduce", "alltoallv", "barrier"} {
		if calls[op] != 4 {
			t.Errorf("bat_fabric_%s_calls = %d, want 4", op, calls[op])
		}
	}
	// Alltoallv wire volume is exact: each rank sends 3 remote parts x 2B.
	if bytesBy["alltoallv"] != 4*3*2 {
		t.Errorf("bat_fabric_alltoallv_bytes = %d, want 24", bytesBy["alltoallv"])
	}
	// Tree collectives forward framed packs, so check a floor, not equality:
	// at least every non-root contribution crossed a link once.
	if bytesBy["gather"] < 3*10 {
		t.Errorf("bat_fabric_gather_bytes = %d, want >= 30", bytesBy["gather"])
	}
	if bytesBy["bcast"] < 3*8 {
		t.Errorf("bat_fabric_bcast_bytes = %d, want >= 24", bytesBy["bcast"])
	}
	if bytesBy["barrier"] != 0 {
		t.Errorf("bat_fabric_barrier_bytes = %d, want 0", bytesBy["barrier"])
	}
}

func cutPrefixSuffix(s, prefix, suffix string) (string, bool) {
	if len(s) <= len(prefix)+len(suffix) {
		return "", false
	}
	if s[:len(prefix)] != prefix || s[len(s)-len(suffix):] != suffix {
		return "", false
	}
	return s[len(prefix) : len(s)-len(suffix)], true
}
