package fabric

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"libbat/internal/leakcheck"
)

// TestIbarrierUnderTraffic drives the pattern that replaces the paper's
// MPI_Ibarrier loop, the way the read pipeline does: every rank queries
// every other rank, a receiver goroutine answers the queries under a
// wildcard receive, and the rank's own goroutine collects its replies and
// then enters a blocking Barrier. The barrier must not release before every
// rank has entered it, and once it has, no query may be left unserved.
func TestIbarrierUnderTraffic(t *testing.T) {
	leakcheck.Check(t)
	const n = 16
	const tagQ, tagR = 9, 10
	var entered atomic.Int32
	err := Run(n, func(c *Comm) error {
		ctx, stop := context.WithCancel(context.Background())
		defer stop()
		served := make(chan int, 1)
		go func() {
			count := 0
			for {
				d, st, err := c.RecvCtx(ctx, AnySource, tagQ)
				if err != nil {
					served <- count
					return
				}
				count++
				c.Send(st.Source, tagR, append([]byte{byte(c.Rank())}, d...))
			}
		}()
		// Stagger entry so early ranks wait in the barrier for a while
		// with their receivers still serving.
		time.Sleep(time.Duration(c.Rank()) * time.Millisecond)
		for dst := 0; dst < n; dst++ {
			if dst != c.Rank() {
				c.Send(dst, tagQ, []byte{byte(c.Rank())})
			}
		}
		// A reply names its server and echoes this rank's query.
		for got := 0; got < n-1; got++ {
			d, st := c.Recv(AnySource, tagR)
			if len(d) != 2 || int(d[0]) != st.Source || int(d[1]) != c.Rank() {
				return fmt.Errorf("rank %d: reply %v from %d", c.Rank(), d, st.Source)
			}
		}
		entered.Add(1)
		c.Barrier()
		if e := entered.Load(); e != n {
			return fmt.Errorf("rank %d: barrier released with only %d/%d ranks entered", c.Rank(), e, n)
		}
		stop()
		if count := <-served; count != n-1 {
			return fmt.Errorf("rank %d: served %d queries, want %d", c.Rank(), count, n-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvCtxCanceled: a receive with no matching message returns
// ctx.Err() once its context ends, whether canceled or past its deadline,
// and a message queued meanwhile under another tag stays queued.
func TestRecvCtxCanceled(t *testing.T) {
	leakcheck.Check(t)
	f := New(2)
	c := f.Comm(0)
	f.Comm(1).Send(0, 2, []byte("other"))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, _, err := c.RecvCtx(ctx, AnySource, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled receive: err = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if _, _, err := c.RecvCtx(dctx, 1, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired receive: err = %v, want context.DeadlineExceeded", err)
	}
	if d, st := c.Recv(1, 2); string(d) != "other" || st.Tag != 2 {
		t.Fatalf("queued message: %q %+v", d, st)
	}
}

// TestRecvCtxLateArrival: a message that arrives while the receiver waits
// is delivered to it.
func TestRecvCtxLateArrival(t *testing.T) {
	leakcheck.Check(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(10 * time.Millisecond)
			c.Send(0, 3, []byte("late"))
			return nil
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d, st, err := c.RecvCtx(ctx, AnySource, 3)
		if err != nil || string(d) != "late" || st.Source != 1 || st.Tag != 3 {
			return fmt.Errorf("late receive: %q %+v %v", d, st, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvCtxConcurrentTags: two goroutines of one rank receive distinct
// tags at once while the sender interleaves them; each gets exactly its
// own tag's messages, in order.
func TestRecvCtxConcurrentTags(t *testing.T) {
	leakcheck.Check(t)
	const msgs = 200
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < msgs; i++ {
				c.Send(0, 1+i%2, []byte{byte(i % 2), byte(i / 2)})
			}
			return nil
		}
		errs := make(chan error, 2)
		for tag := 1; tag <= 2; tag++ {
			go func() {
				for seq := 0; seq < msgs/2; seq++ {
					d, st, err := c.RecvCtx(context.Background(), AnySource, tag)
					if err != nil || st.Tag != tag || int(d[0]) != tag-1 || int(d[1]) != seq {
						errs <- fmt.Errorf("tag %d, seq %d: got %v %+v %v", tag, seq, d, st, err)
						return
					}
				}
				errs <- nil
			}()
		}
		for range 2 {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnySourceAnyTagConcurrentSenders floods one receiver from every other
// rank at once, over several tags, and checks wildcard receives see every
// message exactly once, with a status that matches the payload and
// non-overtaking (FIFO) order per sender.
func TestAnySourceAnyTagConcurrentSenders(t *testing.T) {
	const n = 12
	const perSender = 50
	err := Run(n, func(c *Comm) error {
		if c.Rank() != 0 {
			for seq := 0; seq < perSender; seq++ {
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint32(buf[0:], uint32(c.Rank()))
				binary.LittleEndian.PutUint32(buf[4:], uint32(seq))
				c.Send(0, 100+seq%3, buf)
			}
			return nil
		}
		nextSeq := make([]int, n)
		for i := 0; i < (n-1)*perSender; i++ {
			d, st := c.Recv(AnySource, AnyTag)
			src := int(binary.LittleEndian.Uint32(d[0:]))
			seq := int(binary.LittleEndian.Uint32(d[4:]))
			if src != st.Source {
				return fmt.Errorf("payload says source %d, status says %d", src, st.Source)
			}
			if st.Tag != 100+seq%3 {
				return fmt.Errorf("seq %d from %d arrived with tag %d", seq, src, st.Tag)
			}
			if seq != nextSeq[src] {
				return fmt.Errorf("from rank %d: got seq %d, want %d (overtaking)", src, seq, nextSeq[src])
			}
			nextSeq[src]++
		}
		for r := 1; r < n; r++ {
			if nextSeq[r] != perSender {
				return fmt.Errorf("rank %d delivered %d/%d messages", r, nextSeq[r], perSender)
			}
		}
		done, cancel := context.WithCancel(context.Background())
		cancel()
		if d, st, err := c.RecvCtx(done, AnySource, AnyTag); err == nil {
			return fmt.Errorf("message %v %+v left over after all were received", d, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
