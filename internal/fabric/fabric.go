// Package fabric provides a simulated MPI-like message-passing layer. Ranks
// run as goroutines and communicate through matched point-to-point messages
// and collectives (gather, scatterv, broadcast, allreduce, alltoallv,
// barrier), mirroring the MPI feature set the paper's pipeline depends on:
// point-to-point transfers for aggregation (§III-B) and the client-server
// read loop (§IV-B). Where the paper's read loop polls MPI_Ibarrier because
// an MPI rank is one thread, a rank here runs a receiver goroutine and ends
// the loop with a blocking Barrier: the same termination rule over the
// same messages.
//
// Semantics follow MPI's: messages between a (source, destination, tag)
// triple are delivered in order, receives match on source and tag with
// AnySource/AnyTag wildcards, and sends are buffered (they complete without
// a matching receive, so MPI's nonblocking send is a plain Send here).
package fabric

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"libbat/internal/obs"
)

// Wildcards accepted by receive operations.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is one in-flight point-to-point message.
type message struct {
	src, tag int
	data     []byte
	seq      uint64 // arrival order, for FIFO matching
}

// inbox holds a rank's unmatched incoming messages.
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
	seq  uint64
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) deposit(m message) {
	ib.mu.Lock()
	m.seq = ib.seq
	ib.seq++
	ib.msgs = append(ib.msgs, m)
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// match removes and returns the earliest message matching (src, tag), or
// false if none is queued.
func (ib *inbox) match(src, tag int) (message, bool) {
	for i, m := range ib.msgs {
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			ib.msgs = append(ib.msgs[:i], ib.msgs[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

// Fabric connects a fixed number of ranks.
type Fabric struct {
	size    int
	inboxes []*inbox

	// Simple traffic statistics for benchmarking/validation.
	bytesSent atomic.Int64
	msgsSent  atomic.Int64

	// col, when set, receives per-rank traffic counters and is handed to
	// the pipelines through Comm.Observer. Nil (the default) disables
	// telemetry; hot paths then pay only nil checks.
	col *obs.Collector

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	barrierGen  uint64
	barrierCnt  int
}

// New creates a fabric connecting size ranks.
func New(size int) *Fabric {
	if size <= 0 {
		panic("fabric: size must be positive")
	}
	f := &Fabric{size: size, inboxes: make([]*inbox, size)}
	for i := range f.inboxes {
		f.inboxes[i] = newInbox()
	}
	f.barrierCond = sync.NewCond(&f.barrierMu)
	return f
}

// Size returns the number of ranks.
func (f *Fabric) Size() int { return f.size }

// SetObserver attaches a telemetry collector to the fabric. It must be
// called before communicators are created (i.e. before Run or Comm);
// communicators resolve their counter handles at creation time.
func (f *Fabric) SetObserver(c *obs.Collector) { f.col = c }

// Observer returns the attached collector (nil when telemetry is off).
func (f *Fabric) Observer() *obs.Collector { return f.col }

// BytesSent returns the total bytes moved through the fabric so far.
func (f *Fabric) BytesSent() int64 { return f.bytesSent.Load() }

// MessagesSent returns the total number of point-to-point messages sent.
func (f *Fabric) MessagesSent() int64 { return f.msgsSent.Load() }

// Comm is one rank's handle onto the fabric. Point-to-point sends and
// receives may be called from several goroutines of one rank at once (a
// receiver goroutine serving queries while the rank's own goroutine
// collects replies); each message goes to exactly one matching receive.
// Collectives must stay on the rank's own goroutine, one at a time, in the
// same order on every rank.
type Comm struct {
	f    *Fabric
	rank int

	// Telemetry handles, resolved once at Comm creation; all nil (no-op)
	// when the fabric has no collector attached.
	sentBytes, sentMsgs *obs.Counter
	recvBytes, recvMsgs *obs.Counter
}

// Comm returns the communicator handle for the given rank.
func (f *Fabric) Comm(rank int) *Comm {
	if rank < 0 || rank >= f.size {
		panic(fmt.Sprintf("fabric: rank %d out of range [0,%d)", rank, f.size))
	}
	c := &Comm{f: f, rank: rank}
	if f.col != nil {
		r := obs.Rank(rank)
		c.sentBytes = f.col.Counter("fabric_sent_bytes_total", r)
		c.sentMsgs = f.col.Counter("fabric_sent_msgs_total", r)
		c.recvBytes = f.col.Counter("fabric_recv_bytes_total", r)
		c.recvMsgs = f.col.Counter("fabric_recv_msgs_total", r)
	}
	return c
}

// Observer returns the fabric's telemetry collector (nil when disabled),
// letting collective pipelines record spans on this rank's timeline.
func (c *Comm) Observer() *obs.Collector { return c.f.col }

// noteRecv counts one completed receive.
func (c *Comm) noteRecv(n int) {
	c.recvBytes.Add(int64(n))
	c.recvMsgs.Add(1)
}

// noteOp counts one collective call plus the payload bytes this rank sent
// inside it (each byte is charged once, at its sender, so summing the
// per-rank series gives the collective's total wire volume). The
// per-operation series make planning-phase comm volume measurable:
// bat_fabric_<op>_bytes / bat_fabric_<op>_calls.
func (c *Comm) noteOp(op string, bytes int) {
	if c.f.col == nil {
		return
	}
	r := obs.Rank(c.rank)
	c.f.col.Add("bat_fabric_"+op+"_calls", 1, r)
	if bytes > 0 {
		c.f.col.Add("bat_fabric_"+op+"_bytes", int64(bytes), r)
	}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the fabric.
func (c *Comm) Size() int { return c.f.size }

// Send delivers data to dst with the given tag. Sends are buffered and
// complete immediately; the data slice is not copied, so callers must not
// modify it afterwards.
func (c *Comm) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.f.size {
		panic(fmt.Sprintf("fabric: send to invalid rank %d", dst))
	}
	c.f.bytesSent.Add(int64(len(data)))
	c.f.msgsSent.Add(1)
	c.sentBytes.Add(int64(len(data)))
	c.sentMsgs.Add(1)
	c.f.inboxes[dst].deposit(message{src: c.rank, tag: tag, data: data})
}

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	ib := c.f.inboxes[c.rank]
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if m, ok := ib.match(src, tag); ok {
			c.noteRecv(len(m.data))
			return m.data, Status{Source: m.src, Tag: m.tag}
		}
		ib.cond.Wait()
	}
}

// RecvCtx is Recv that gives up when ctx ends: it blocks until a message
// matching (src, tag) arrives and returns it, or returns ctx.Err() once ctx
// is done and no matching message is queued.
func (c *Comm) RecvCtx(ctx context.Context, src, tag int) ([]byte, Status, error) {
	ib := c.f.inboxes[c.rank]
	// The wakeup takes the inbox lock before broadcasting so it cannot slip
	// between a waiter's ctx check and its cond.Wait.
	stop := context.AfterFunc(ctx, func() {
		ib.mu.Lock()
		ib.mu.Unlock()
		ib.cond.Broadcast()
	})
	defer stop()
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if m, ok := ib.match(src, tag); ok {
			c.noteRecv(len(m.data))
			return m.data, Status{Source: m.src, Tag: m.tag}, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, Status{}, err
		}
		ib.cond.Wait()
	}
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.noteOp("barrier", 0)
	f := c.f
	f.barrierMu.Lock()
	gen := f.barrierGen
	f.barrierCnt++
	if f.barrierCnt == f.size {
		f.barrierCnt = 0
		f.barrierGen++
		f.barrierMu.Unlock()
		f.barrierCond.Broadcast()
		return
	}
	for f.barrierGen == gen {
		f.barrierCond.Wait()
	}
	f.barrierMu.Unlock()
}

// Collective tags live in a reserved space above any user tag.
const (
	tagGather = 1<<30 + iota
	tagScatter
	tagBcast
	tagReduce
	tagAlltoall
)

// The rooted collectives route along a binomial tree over virtual ranks
// vr = (rank - root + size) mod size. A rank's parent is vr with its lowest
// set bit cleared; its children are vr + 2^k for every 2^k below that bit
// (all of them for vr = 0). The subtree rooted at the child joined through
// bit m covers the contiguous virtual-rank range [vr+m, vr+2m), which is
// what lets gathers and scatters split payloads cleanly and lets reductions
// fold contributions in ascending rank order regardless of arrival timing.
// Depth is ceil(log2 P) instead of the O(P) serial loops the root paid
// before.

// treeLowBit returns the lowest set bit of vr, or size for the tree root
// (vr = 0), bounding the child masks 1, 2, 4, ... below it.
func treeLowBit(vr, size int) int {
	if vr == 0 {
		return size
	}
	return vr & -vr
}

// gatherEntry is one rank's contribution riding up or down the tree.
type gatherEntry struct {
	rank int
	data []byte
}

// packEntries serializes entries as (u32 rank, u32 len, bytes) records with
// a u32 count prefix. Subtrees are non-contiguous in actual-rank space, so
// each record carries its rank explicitly.
func packEntries(entries []gatherEntry) []byte {
	n := 4
	for _, e := range entries {
		n += 8 + len(e.data)
	}
	buf := make([]byte, 0, n)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.rank))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.data)))
		buf = append(buf, e.data...)
	}
	return buf
}

// unpackEntries reverses packEntries. Packs travel only rank-to-rank inside
// one collective, so malformed input is a programming error and panics.
func unpackEntries(buf []byte) []gatherEntry {
	count := binary.LittleEndian.Uint32(buf)
	buf = buf[4:]
	entries := make([]gatherEntry, count)
	for i := range entries {
		r := binary.LittleEndian.Uint32(buf)
		l := binary.LittleEndian.Uint32(buf[4:])
		entries[i] = gatherEntry{rank: int(r), data: buf[8 : 8+l]}
		buf = buf[8+l:]
	}
	return entries
}

// gatherTree runs one binomial-tree gather: every rank receives its
// children's subtree packs, appends its own contribution, and forwards the
// merged pack to its parent. Returns the per-rank payloads on root (nil
// elsewhere) plus the bytes this rank sent.
func (c *Comm) gatherTree(root, tag int, data []byte) ([][]byte, int) {
	size := c.f.size
	vr := (c.rank - root + size) % size
	entries := []gatherEntry{{rank: c.rank, data: data}}
	low := treeLowBit(vr, size)
	for mask := 1; mask < low && vr+mask < size; mask <<= 1 {
		pack, _ := c.Recv((vr+mask+root)%size, tag)
		entries = append(entries, unpackEntries(pack)...)
	}
	if vr == 0 {
		out := make([][]byte, size)
		for _, e := range entries {
			out[e.rank] = e.data
		}
		return out, 0
	}
	pack := packEntries(entries)
	c.Send((vr-low+root)%size, tag, pack)
	return nil, len(pack)
}

// bcastTree runs one binomial-tree broadcast from root and returns the
// payload plus the bytes this rank sent.
func (c *Comm) bcastTree(root, tag int, data []byte) ([]byte, int) {
	size := c.f.size
	vr := (c.rank - root + size) % size
	if vr != 0 {
		data, _ = c.Recv((vr-(vr&-vr)+root)%size, tag)
	}
	sent := 0
	low := treeLowBit(vr, size)
	for mask := 1; mask < low && vr+mask < size; mask <<= 1 {
		c.Send((vr+mask+root)%size, tag, data)
		sent += len(data)
	}
	return data, sent
}

// Gather collects data from every rank on root along a binomial tree. On
// root the result has one entry per rank (the root's own contribution
// included, at its rank index); on other ranks it returns nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	out, sent := c.gatherTree(root, tagGather, data)
	c.noteOp("gather", sent)
	return out
}

// Scatterv distributes parts[i] from root to rank i along a binomial tree
// and returns this rank's part. On root, parts must have Size entries; on
// other ranks it is ignored. Each internal rank receives the pack covering
// its subtree, keeps its own part, and forwards each child's sub-pack.
func (c *Comm) Scatterv(root int, parts [][]byte) []byte {
	size := c.f.size
	vr := (c.rank - root + size) % size
	var entries []gatherEntry
	if vr == 0 {
		if len(parts) != size {
			panic("fabric: Scatterv needs one part per rank")
		}
		entries = make([]gatherEntry, size)
		for i, p := range parts {
			entries[i] = gatherEntry{rank: i, data: p}
		}
	} else {
		pack, _ := c.Recv((vr-(vr&-vr)+root)%size, tagScatter)
		entries = unpackEntries(pack)
	}
	var own []byte
	sent := 0
	low := treeLowBit(vr, size)
	for mask := 1; mask < low && vr+mask < size; mask <<= 1 {
		var sub []gatherEntry
		for _, e := range entries {
			evr := (e.rank - root + size) % size
			if evr >= vr+mask && evr < vr+2*mask {
				sub = append(sub, e)
			}
		}
		pack := packEntries(sub)
		c.Send((vr+mask+root)%size, tagScatter, pack)
		sent += len(pack)
	}
	for _, e := range entries {
		if e.rank == c.rank {
			own = e.data
		}
	}
	c.noteOp("scatterv", sent)
	return own
}

// Bcast broadcasts data from root to every rank along a binomial tree and
// returns the payload.
func (c *Comm) Bcast(root int, data []byte) []byte {
	out, sent := c.bcastTree(root, tagBcast, data)
	c.noteOp("bcast", sent)
	return out
}

// Allreduce folds every rank's contribution with combine and returns the
// result on all ranks. The reduction runs up the binomial tree rooted at
// rank 0 and the result is broadcast back down. combine is always applied
// as combine(accumulated, next) in ascending rank order — the fold shape is
// fixed by the tree, not by arrival timing — so any associative combine
// (commutative or not) yields a deterministic, rank-order result. combine
// may modify and return its first argument; it must not retain the second.
func (c *Comm) Allreduce(data []byte, combine func(acc, next []byte) []byte) []byte {
	size := c.f.size
	sent := 0
	acc := data
	for mask := 1; mask < size; mask <<= 1 {
		if c.rank&mask != 0 {
			c.Send(c.rank^mask, tagReduce, acc)
			sent += len(acc)
			break
		}
		if c.rank+mask < size {
			d, _ := c.Recv(c.rank+mask, tagReduce)
			acc = combine(acc, d)
		}
	}
	out, bsent := c.bcastTree(0, tagReduce, acc)
	c.noteOp("allreduce", sent+bsent)
	return out
}

// Alltoallv sends parts[i] to rank i and returns the payloads received from
// every rank, indexed by source (MPI_Alltoallv). parts must have Size
// entries; the rank's own part is passed through untouched. Receives match
// explicit sources, so back-to-back Alltoallv calls stay correctly paired
// under the fabric's per-(src,dst,tag) FIFO ordering.
func (c *Comm) Alltoallv(parts [][]byte) [][]byte {
	size := c.f.size
	if len(parts) != size {
		panic("fabric: Alltoallv needs one part per rank")
	}
	sent := 0
	for dst, p := range parts {
		if dst != c.rank {
			c.Send(dst, tagAlltoall, p)
			sent += len(p)
		}
	}
	out := make([][]byte, size)
	out[c.rank] = parts[c.rank]
	for src := 0; src < size; src++ {
		if src != c.rank {
			out[src], _ = c.Recv(src, tagAlltoall)
		}
	}
	c.noteOp("alltoallv", sent)
	return out
}

// Run spawns size ranks, invoking body with each rank's communicator, and
// waits for all of them. The first non-nil error is returned.
func Run(size int, body func(c *Comm) error) error {
	f := New(size)
	return f.Run(body)
}

// Run invokes body on every rank of an existing fabric and waits for all.
func (f *Fabric) Run(body func(c *Comm) error) error {
	errs := make([]error, f.size)
	var wg sync.WaitGroup
	for r := 0; r < f.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(f.Comm(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
