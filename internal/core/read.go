package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"libbat/internal/bat"
	"libbat/internal/binfmt"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/obs"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// ReadStats reports what one rank observed during a collective read.
type ReadStats struct {
	Metadata  time.Duration // reading + parsing the metadata file
	FileRead  time.Duration // opening and querying leaf files (aggregator side)
	Transfer  time.Duration // waiting for and receiving remote replies
	NumFiles  int           // leaf files this rank served as read aggregator
	Particles int           // particles returned to this rank

	// LeafErrors records, per selected leaf index, why that leaf's data
	// could not be returned to this rank (damaged file, failed checksum,
	// server-side error). A key of -1 marks a reply too mangled to name
	// its leaf. When non-empty, ReadQuery returns the surviving particles
	// together with an error wrapping ErrPartial.
	LeafErrors map[int]error
}

// Total returns the rank's end-to-end read time.
func (s *ReadStats) Total() time.Duration {
	return s.Metadata + s.FileRead + s.Transfer
}

// ReadAggregator returns the rank assigned to read leaf li of nLeaves in a
// world of size ranks: with more ranks than files, readers are spread
// evenly through the rank space as in the write phase; with fewer, files
// are dealt round-robin over the ranks (§IV-A).
func ReadAggregator(li, nLeaves, size int) int {
	if nLeaves <= size {
		return li * size / nLeaves
	}
	return li % size
}

// Read performs the two-phase parallel read (Figure 3). It is collective:
// every rank calls it with the spatial bounds it wants (a checkpoint
// restart read passes the rank's own domain bounds). It returns the
// particles inside bounds.
func Read(c *fabric.Comm, store pfs.Storage, base string, bounds geom.Box) (*particles.Set, *ReadStats, error) {
	return ReadQueryCtx(context.Background(), c, store, base, bat.Query{Bounds: &bounds})
}

// ReadQueryCtx is the general form of Read: each rank supplies a full
// visualization-style query (spatial bounds, attribute filters, and a
// progressive quality window), which the read aggregators evaluate against
// their leaf files. This is the distributed in situ analytics access path
// the paper's §IV-B describes. Ranks may pass different queries; a rank
// wanting nothing passes a query with empty bounds.
//
// Damaged leaf files degrade the read instead of killing it: the healthy
// leaves' particles are returned alongside an error wrapping ErrPartial,
// with per-leaf diagnostics in ReadStats.LeafErrors. A rank that cannot
// read the metadata fails the whole collective — via the same
// error-agreement collective the write pipeline ends with — since query
// routing needs every rank to share the leaf assignment.
//
// Cancellation of ctx never abandons the collective protocol — every rank
// still exchanges every message and exits the loop — but leaf serving
// aborts: a canceled rank answers its remaining leaf queries (its own and
// other ranks') with error replies instead of data. The requesters record those as per-leaf failures, so a rank whose
// deadline fires gets the particles already gathered plus an error wrapping
// ErrPartial, exactly like a damaged-leaf degraded read. A cancellation
// before the metadata is agreed on fails the whole collective, since query
// routing needs every rank to share the leaf assignment.
func ReadQueryCtx(ctx context.Context, c *fabric.Comm, store pfs.Storage, base string, q bat.Query) (*particles.Set, *ReadStats, error) {
	stats := &ReadStats{}

	col := c.Observer()
	whole := col.Start(c.Rank(), "read")
	defer whole.End()

	// Phase a: every rank reads the metadata file.
	metaStart := time.Now()
	metaSp := col.Start(c.Rank(), "read.meta")
	ds, err := OpenDataset(ctx, store, base)
	metaSp.End()
	// Agree on the metadata status before any queries are routed: a rank
	// returning here while others proceed would leave their queries to it
	// unanswered forever.
	if aerr := agreeOnError(c, "read metadata", err); aerr != nil {
		return nil, nil, aerr
	}
	stats.Metadata = time.Since(metaStart)
	defer ds.Close()
	m := ds.meta
	nLeaves := len(m.Leaves)
	if nLeaves == 0 {
		c.Barrier()
		return particles.NewSet(m.Schema, 0), stats, nil
	}

	// Phase b: determine which leaves this rank's query can touch and who
	// reads them; the assignment is computed locally on every rank
	// (§IV-A). The aggregation tree prunes spatially and by the global
	// attribute bitmaps before any file is contacted.
	want := ds.Select(q)

	// Phase c: the client-server query loop (§IV-B). Each remote leaf gets
	// one query to its reader; leaves this rank reads itself are served
	// locally ("if a rank requires data from itself, it performs these
	// queries locally").
	xferStart := time.Now()
	out := particles.NewSet(m.Schema, 0)
	var selfLeaves []int
	pending := 0
	for _, li := range want {
		reader := ReadAggregator(li, nLeaves, c.Size())
		if reader == c.Rank() {
			selfLeaves = append(selfLeaves, li)
			continue
		}
		c.Send(reader, tagQuery, encodeQuery(li, q))
		pending++
	}

	// A receiver goroutine takes this rank's incoming queries and feeds a
	// worker pool, so one rank serves many in-flight client queries and
	// many of its own files concurrently; ds opens each leaf once and
	// shares it across queries. Every served leaf becomes one wire reply:
	// workers send remote ones themselves and hand this rank's own back on
	// selfReplies, and both are decoded alike. Meanwhile this goroutine
	// collects exactly its pending replies, then its own leaves, and enters
	// the barrier. A reply is sent only once its query has been served, and
	// a rank enters the barrier only once it holds all its replies, so when
	// the barrier passes no query of this read is in flight anywhere, and
	// the receiver stops. (The next read cannot send a query before every
	// rank has passed its metadata agreement, so the receiver never takes
	// one of a later read.) This is the termination rule of the paper's
	// MPI_Ibarrier loop, with the same messages, written with blocking
	// waits.
	//
	// The receiver's context is cut off from ctx: cancellation must not
	// abandon the protocol. Workers see ctx and answer every query they
	// get after it ends with an error reply, which the requester records
	// in LeafErrors. A damaged leaf likewise costs only that leaf; protocol
	// corruption (an undecodable query) fails the rank outright.
	var firstLeafErr error
	take := func(raw []byte, source int) {
		leaf, err := parseReply(raw, out)
		if err == nil {
			return
		}
		err = fmt.Errorf("core: leaf %d via rank %d: %w", leaf, source, err)
		if stats.LeafErrors == nil {
			stats.LeafErrors = map[int]error{}
		}
		if _, dup := stats.LeafErrors[leaf]; !dup {
			stats.LeafErrors[leaf] = err
		}
		if firstLeafErr == nil {
			firstLeafErr = err
		}
	}
	served := c.Observer().Counter("core_queries_served_total", obs.Rank(c.Rank()))
	replyBytes := c.Observer().Counter("core_reply_bytes_total", obs.Rank(c.Rank()))

	nWorkers := runtime.GOMAXPROCS(0)
	jobs := make(chan serveJob, nWorkers)
	selfReplies := make(chan []byte, len(selfLeaves))
	fileRead := make([]time.Duration, nWorkers)
	var workers sync.WaitGroup
	for i := range nWorkers {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for j := range jobs {
				reply, d := serveLeafJob(ctx, col, c.Rank(), ds, j)
				fileRead[i] += d
				if j.source == c.Rank() {
					selfReplies <- reply
					continue
				}
				replyBytes.Add(int64(len(reply)))
				c.Send(j.source, tagReply, reply)
			}
		}()
	}

	recvCtx, stopRecv := context.WithCancel(context.WithoutCancel(ctx))
	var firstErr error // written by the receiver only; read after the pool ends
	go func() {
		defer close(jobs)
		for _, li := range selfLeaves {
			served.Inc()
			jobs <- serveJob{source: c.Rank(), leaf: li, q: q}
		}
		for {
			raw, st, err := c.RecvCtx(recvCtx, fabric.AnySource, tagQuery)
			if err != nil {
				return // the barrier has passed
			}
			served.Inc()
			leaf, rq, err := decodeQuery(raw)
			if err != nil {
				err = fmt.Errorf("core: rank %d decoding a query from rank %d: %w", c.Rank(), st.Source, err)
				if firstErr == nil {
					firstErr = err
				}
				c.Send(st.Source, tagReply, replyError(-1, err))
				continue
			}
			jobs <- serveJob{source: st.Source, leaf: leaf, q: rq}
		}
	}()

	for ; pending > 0; pending-- {
		raw, st := c.Recv(fabric.AnySource, tagReply)
		take(raw, st.Source)
	}
	for range selfLeaves {
		take(<-selfReplies, c.Rank())
	}
	c.Barrier()
	stopRecv()
	workers.Wait()
	for _, d := range fileRead {
		stats.FileRead += d
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}
	stats.Transfer = time.Since(xferStart) - stats.FileRead
	if stats.Transfer < 0 {
		stats.Transfer = 0
	}
	stats.Particles = out.Len()
	// Failed opens are never kept, so what is open now is what this rank
	// opened.
	stats.NumFiles = ds.NumOpen()
	if len(stats.LeafErrors) > 0 {
		return out, stats, fmt.Errorf("%w: %d of %d selected leaves failed (first: %v)",
			ErrPartial, len(stats.LeafErrors), len(want), firstLeafErr)
	}
	return out, stats, nil
}

// Reply framing: one status byte (0 = data, 1 = error), the leaf index as
// a little-endian u32 (so the requester can attribute failures per leaf;
// ^0 when the server could not decode the query), then either the leaf's
// particles as a particles.Marshal payload or an error string.
const (
	replyOK      = 0
	replyFail    = 1
	replyHdrSize = 5
)

func replyHeader(status byte, leaf int) []byte {
	w := binfmt.Writer{Buf: make([]byte, 0, replyHdrSize)}
	w.U8(status)
	w.U32(uint32(leaf))
	return w.Buf
}

func replyError(leaf int, err error) []byte {
	return append(replyHeader(replyFail, leaf), err.Error()...)
}

// parseReply appends a data reply's particles to out, or returns the
// failure an error reply carries, naming the reply's leaf either way.
func parseReply(raw []byte, out *particles.Set) (int, error) {
	r := binfmt.NewReader(raw)
	status, leaf := r.U8(), int(r.I32())
	if r.Err() != nil {
		return -1, fmt.Errorf("short reply (%d bytes)", len(raw))
	}
	if status == replyFail {
		return leaf, fmt.Errorf("server error: %s", r.Rest())
	}
	return leaf, out.AppendMarshaled(r.Rest())
}

// serveJob is one leaf query for the aggregator worker pool, from the rank
// source (this rank itself for one of its own leaves).
type serveJob struct {
	source int
	leaf   int
	q      bat.Query
}

// serveLeafJob runs on a pool worker: query the leaf through ds and return
// its wire reply and the time spent reading, on the serving rank's span
// lane. Each visited particle is appended to the reply as a record, behind
// the header and a count patched in at the end. It never touches the
// communicator. If ctx ends before or during the serve, its error becomes a
// per-leaf error reply, and since ds never caches a failed open a later read
// retries the leaf cleanly.
func serveLeafJob(ctx context.Context, col *obs.Collector, rank int, ds *Dataset, j serveJob) ([]byte, time.Duration) {
	sp := col.Start(rank, "read.serve")
	defer sp.End()
	start := time.Now()
	w := binfmt.Writer{Buf: replyHeader(replyOK, j.leaf)}
	w.U64(0)
	reply := w.Buf
	recSize := ds.meta.Schema.RecordSize()
	err := ctx.Err()
	if err != nil {
		err = fmt.Errorf("core: leaf %d abandoned: %w", j.leaf, err)
	} else {
		_, err = ds.Query(ctx, []int{j.leaf}, j.q, func(p geom.Vec3, attrs []float64) error {
			if cap(reply)-len(reply) < recSize {
				// Double rather than take append's 1.25× for large slices.
				reply = append(make([]byte, 0, 2*cap(reply)+recSize), reply...)
			}
			reply = particles.AppendRecord(reply, float32(p.X), float32(p.Y), float32(p.Z), attrs)
			return nil
		})
	}
	if err != nil {
		// The requester records the leaf failure; serving it must not
		// poison this rank's own read.
		return replyError(j.leaf, err), time.Since(start)
	}
	// A Writer over the count's window patches it in place.
	w = binfmt.Writer{Buf: reply[replyHdrSize:replyHdrSize]}
	w.U64(uint64((len(reply) - replyHdrSize - 8) / recSize))
	return reply, time.Since(start)
}
