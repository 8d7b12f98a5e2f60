package fabric

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
			return nil
		}
		d, st := c.Recv(0, 7)
		if string(d) != "hello" || st.Source != 0 || st.Tag != 7 {
			return fmt.Errorf("got %q %+v", d, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, []byte("a"))
		case 1:
			c.Send(2, 2, []byte("b"))
		case 2:
			got := map[string]bool{}
			for i := 0; i < 2; i++ {
				d, st := c.Recv(AnySource, AnyTag)
				got[string(d)] = true
				if st.Source != 0 && st.Source != 1 {
					return fmt.Errorf("bad source %d", st.Source)
				}
			}
			if !got["a"] || !got["b"] {
				return fmt.Errorf("missing messages: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	// A receive for tag 2 must skip an earlier tag-1 message.
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("one"))
			c.Send(1, 2, []byte("two"))
			return nil
		}
		d2, _ := c.Recv(0, 2)
		d1, _ := c.Recv(0, 1)
		if string(d2) != "two" || string(d1) != "one" {
			return fmt.Errorf("tag matching wrong: %q %q", d2, d1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerPair(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, _ := c.Recv(0, 0)
			if d[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", d[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIsendIrecvWait holds Send/Recv to what the pipelines took from MPI's
// Isend/Irecv/Wait: a send completes before its receive is posted, and
// receives naming a source take that source's messages in send order
// whatever order the sources are drained in.
func TestIsendIrecvWait(t *testing.T) {
	const n, per = 4, 3
	err := Run(n, func(c *Comm) error {
		if c.Rank() != 0 {
			for i := 0; i < per; i++ {
				c.Send(0, 5, []byte{byte(c.Rank()), byte(i)})
			}
			c.Barrier()
			return nil
		}
		c.Barrier() // every send has completed, none has been received
		for src := n - 1; src > 0; src-- {
			for i := 0; i < per; i++ {
				d, st := c.Recv(src, 5)
				if st.Source != src || d[0] != byte(src) || d[1] != byte(i) {
					return fmt.Errorf("recv from %d #%d got %v %+v", src, i, d, st)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
func TestBarrier(t *testing.T) {
	var counter atomic.Int32
	err := Run(8, func(c *Comm) error {
		counter.Add(1)
		c.Barrier()
		if got := counter.Load(); got != 8 {
			return fmt.Errorf("barrier released with counter=%d", got)
		}
		c.Barrier() // a second epoch must also work
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		data := []byte{byte(c.Rank() * 10)}
		out := c.Gather(2, data)
		if c.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root got data")
			}
			return nil
		}
		for i, d := range out {
			if len(d) != 1 || d[0] != byte(i*10) {
				return fmt.Errorf("gather[%d] = %v", i, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterv(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		var parts [][]byte
		if c.Rank() == 0 {
			for i := 0; i < 4; i++ {
				parts = append(parts, []byte{byte(i * 3)})
			}
		}
		got := c.Scatterv(0, parts)
		if len(got) != 1 || got[0] != byte(c.Rank()*3) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		var data []byte
		if c.Rank() == 1 {
			data = []byte("broadcast")
		}
		got := c.Bcast(1, data)
		if !bytes.Equal(got, []byte("broadcast")) {
			return fmt.Errorf("rank %d got %q", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := fmt.Errorf("boom")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("got %v", err)
	}
}

func TestStats(t *testing.T) {
	f := New(2)
	err := f.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]byte, 100))
		} else {
			c.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.BytesSent() != 100 || f.MessagesSent() != 1 {
		t.Errorf("stats: %d bytes, %d msgs", f.BytesSent(), f.MessagesSent())
	}
}

func TestManyRanksAllToOne(t *testing.T) {
	// Stress: 128 ranks all send to rank 0 concurrently.
	const n = 128
	err := Run(n, func(c *Comm) error {
		if c.Rank() == 0 {
			seen := make([]bool, n)
			for i := 0; i < n-1; i++ {
				d, st := c.Recv(AnySource, 0)
				if int(d[0]) != st.Source%256 {
					return fmt.Errorf("payload mismatch from %d", st.Source)
				}
				seen[st.Source] = true
			}
			for i := 1; i < n; i++ {
				if !seen[i] {
					return fmt.Errorf("missing message from %d", i)
				}
			}
			return nil
		}
		c.Send(0, 0, []byte{byte(c.Rank() % 256)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSendRecvPingPong(b *testing.B) {
	f := New(2)
	done := make(chan struct{})
	go func() {
		c := f.Comm(1)
		for {
			d, _ := c.Recv(0, 0)
			if d == nil {
				close(done)
				return
			}
			c.Send(0, 1, d)
		}
	}()
	c := f.Comm(0)
	payload := make([]byte, 1024)
	b.SetBytes(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Send(1, 0, payload)
		c.Recv(1, 1)
	}
	b.StopTimer()
	c.Send(1, 0, nil)
	<-done
}

func TestPanicsOnMisuse(t *testing.T) {
	f := New(2)
	c := f.Comm(0)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		fn()
	}
	expectPanic("send to invalid rank", func() { c.Send(5, 0, nil) })
	expectPanic("negative rank comm", func() { f.Comm(-1) })
	expectPanic("out of range comm", func() { f.Comm(2) })
	expectPanic("zero fabric", func() { New(0) })
	// Root-side Scatterv validates the part count before communicating.
	expectPanic("scatterv wrong parts", func() {
		c.Scatterv(0, [][]byte{nil}) // 1 part for 2 ranks
	})
}

func TestSingleRankFabric(t *testing.T) {
	// Collectives degenerate gracefully at size 1.
	err := Run(1, func(c *Comm) error {
		out := c.Gather(0, []byte("x"))
		if len(out) != 1 || string(out[0]) != "x" {
			return fmt.Errorf("gather = %v", out)
		}
		if got := c.Scatterv(0, [][]byte{[]byte("y")}); string(got) != "y" {
			return fmt.Errorf("scatterv = %q", got)
		}
		if got := c.Bcast(0, []byte("z")); string(got) != "z" {
			return fmt.Errorf("bcast = %q", got)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
