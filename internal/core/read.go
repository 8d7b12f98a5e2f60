package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"libbat/internal/bat"
	"libbat/internal/binfmt"
	"libbat/internal/fabric"
	"libbat/internal/geom"
	"libbat/internal/obs"
	"libbat/internal/particles"
	"libbat/internal/pfs"
)

// ReadStats reports what one rank observed during a collective read. Each
// phase time is the summed duration of the rank's obs spans of the name it
// gives (DESIGN.md §6).
type ReadStats struct {
	// Metadata is read.meta: opening the dataset's .batm through the end
	// of the metadata agreement.
	Metadata time.Duration
	// FileRead sums read.serve: the leaf queries this rank served, its own
	// leaves on its own goroutine and its peers' on its receiver.
	FileRead time.Duration
	// Transfer is read.transfer: from the first query sent to the exit of
	// the closing barrier, decoding the replies included. On a serving rank
	// it overlaps FileRead.
	Transfer  time.Duration
	NumFiles  int // leaf files this rank served as read aggregator
	Particles int // particles returned to this rank

	// LeafErrors records, per selected leaf index, why that leaf's data
	// could not be returned to this rank (damaged file, failed checksum,
	// server-side error). A key of -1 marks a reply too mangled to name
	// its leaf. When non-empty, ReadQuery returns the surviving particles
	// together with an error wrapping ErrPartial.
	LeafErrors map[int]error
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

	// Phase a: every rank reads the metadata file, and the ranks agree on
	// its status before any queries are routed: a rank returning here while
	// others proceed would leave their queries to it unanswered forever.
	metaSp := col.Start(c.Rank(), "read.meta")
	ds, err := OpenDataset(ctx, store, base)
	err = agreeOnError(c, "read metadata", err)
	stats.Metadata = metaSp.End()
	if err != nil {
		return nil, nil, err // a rank that opened ds holds no leaf yet
	}
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
	xferSp := col.Start(c.Rank(), "read.transfer")
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

	// A receiver goroutine serves this rank's incoming queries one at a
	// time: it decodes each, queries the leaf through ds and sends the
	// reply. This goroutine serves the rank's own leaves itself, placing
	// each reply in its slot, then collects exactly its pending replies,
	// decodes them and enters the barrier. ds opens each leaf once and
	// shares it between the two. A reply is sent only once its query has
	// been served, and a rank enters the barrier only once it holds all its
	// replies, so when the barrier passes no query of this read is in
	// flight anywhere, and the receiver stops. (The next read cannot send a query before every rank has
	// passed its metadata agreement, so the receiver never takes one of a
	// later read.) This is the termination rule of the paper's MPI_Ibarrier
	// loop, with the same messages, written with blocking waits.
	//
	// The receiver's context is cut off from ctx: cancellation must not
	// abandon the protocol. Serves see ctx and answer every query they get
	// after it ends with an error reply, which the requester records in
	// LeafErrors; a serve queued behind a stalled leaf comes back
	// "abandoned" once ctx ends. A damaged leaf likewise costs only that
	// leaf; protocol corruption (an undecodable query) fails the rank
	// outright.
	//
	// Every served leaf becomes one wire reply, a peer's or this rank's
	// own, and each lands in the slot of its leaf's position in want. The
	// slots are decoded once all are in: the answer is the leaves in
	// ascending index whatever order their replies arrive in. A reply no
	// slot takes (a short one, one answering an undecodable query, one for
	// a leaf not asked or already answered) is a leaf error at once.
	slots := make([]*parsedReply, len(want))
	var firstLeafErr error
	fail := func(leaf, source int, err error) {
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
	place := func(raw []byte, source int) {
		rp := parseReply(raw, m.Schema)
		rp.source = source
		if i, asked := slices.BinarySearch(want, rp.leaf); asked && slots[i] == nil {
			slots[i] = &rp
			return
		}
		if rp.err == nil {
			rp.err = errors.New("reply to no open query")
		}
		fail(rp.leaf, source, rp.err)
	}
	served := c.Observer().Counter("core_queries_served_total", obs.Rank(c.Rank()))
	replyBytes := c.Observer().Counter("core_reply_bytes_total", obs.Rank(c.Rank()))

	recvCtx, stopRecv := context.WithCancel(context.WithoutCancel(ctx))
	recvDone := make(chan struct{})
	// Written by the receiver only; read once recvDone is closed.
	var firstErr error
	var recvRead time.Duration
	go func() {
		defer close(recvDone)
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
			reply, d := serveLeaf(ctx, col, c.Rank(), ds, leaf, rq)
			recvRead += d
			replyBytes.Add(int64(len(reply)))
			c.Send(st.Source, tagReply, reply)
		}
	}()

	for _, li := range selfLeaves {
		served.Inc()
		reply, d := serveLeaf(ctx, col, c.Rank(), ds, li, q)
		stats.FileRead += d
		place(reply, c.Rank())
	}
	for ; pending > 0; pending-- {
		raw, st := c.Recv(fabric.AnySource, tagReply)
		place(raw, st.Source)
	}
	total := 0
	for _, rp := range slots {
		if rp != nil {
			total += rp.n
		}
	}
	out := particles.NewSet(m.Schema, total)
	for _, rp := range slots {
		if rp == nil {
			continue
		}
		err := rp.err
		if err == nil {
			err = out.AppendMarshaled(rp.payload)
		}
		if err != nil {
			fail(rp.leaf, rp.source, err)
		}
	}
	c.Barrier()
	stats.Transfer = xferSp.End()
	stopRecv()
	<-recvDone
	stats.FileRead += recvRead
	if firstErr != nil {
		return nil, nil, firstErr
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

// parsedReply is one wire reply as the requester holds it until every
// reply is in: the leaf it answers and the rank that sent it, then either
// the leaf's particle payload and the count n it holds, or the failure an
// error reply carries or its payload shows.
type parsedReply struct {
	leaf, source, n int
	payload         []byte
	err             error
}

// parseReply splits a wire reply whose payload carries particles of
// schema. The payload is checked as AppendMarshaled checks it
// (Schema.PayloadLen) before its count sizes the requester's result, so a
// hostile header cannot make the requester allocate more than its peers
// sent.
func parseReply(raw []byte, schema particles.Schema) parsedReply {
	r := binfmt.NewReader(raw)
	status, leaf := r.U8(), int(r.I32())
	if r.Err() != nil {
		return parsedReply{leaf: -1, err: fmt.Errorf("short reply (%d bytes)", len(raw))}
	}
	if status == replyFail {
		return parsedReply{leaf: leaf, err: fmt.Errorf("server error: %s", r.Rest())}
	}
	payload := r.Rest()
	n, err := schema.PayloadLen(payload)
	if err != nil {
		return parsedReply{leaf: leaf, err: err}
	}
	return parsedReply{leaf: leaf, n: n, payload: payload}
}

// serveLeaf queries leaf through ds for q and returns its wire reply and the
// duration of its read.serve span, on the serving rank's lane. Each visited
// particle is appended to the reply as a record, behind the header and a
// count patched in at the end. The reply doubles as it fills, but never past
// the length of the whole leaf: the leaf's count in the metadata, which its
// file has matched by then, bounds every reply, so one that takes the leaf
// whole ends exactly full. It never touches the communicator. If ctx ends
// before or during the serve, its error becomes a per-leaf error reply,
// and since ds never caches a failed open a later read retries the leaf
// cleanly.
func serveLeaf(ctx context.Context, col *obs.Collector, rank int, ds *Dataset, leaf int, q bat.Query) ([]byte, time.Duration) {
	sp := col.Start(rank, "read.serve")
	w := binfmt.Writer{Buf: replyHeader(replyOK, leaf)}
	w.U64(0)
	reply := w.Buf
	recSize := ds.meta.Schema.RecordSize()
	full := replyHdrSize + 8 + int(ds.meta.Leaves[leaf].Count)*recSize
	err := ctx.Err()
	if err != nil {
		err = fmt.Errorf("core: leaf %d abandoned: %w", leaf, err)
	} else {
		_, err = ds.Query(ctx, []int{leaf}, q, func(p geom.Vec3, attrs []float64) error {
			if cap(reply)-len(reply) < recSize {
				// Double rather than take append's 1.25× for large slices.
				reply = append(make([]byte, 0, min(2*cap(reply)+recSize, full)), reply...)
			}
			reply = particles.AppendRecord(reply, float32(p.X), float32(p.Y), float32(p.Z), attrs)
			return nil
		})
	}
	if err != nil {
		// The requester records the leaf failure; serving it must not
		// poison this rank's own read.
		return replyError(leaf, err), sp.End()
	}
	// A Writer over the count's window patches it in place.
	w = binfmt.Writer{Buf: reply[replyHdrSize:replyHdrSize]}
	w.U64(uint64((len(reply) - replyHdrSize - 8) / recSize))
	return reply, sp.End()
}
