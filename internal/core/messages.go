// Package core implements the paper's two-phase I/O pipelines over the
// simulated MPI fabric: spatially aware adaptive aggregation writes
// (§III, Figure 1) and client/server two-phase reads (§IV, Figure 3). All
// ranks call Write/Read collectively, exactly as a simulation would call
// the paper's C API from every MPI rank.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"libbat/internal/bat"
	"libbat/internal/geom"
	"libbat/internal/meta"
)

// Message tags of the pipelines' point-to-point messages.
const (
	tagData = iota + 1
	tagQuery
	tagReply
)

// infoMsg is each rank's contribution to the aggregation plan (Figure 1a).
type infoMsg struct {
	Count  int64
	Bounds geom.Box
}

// leafAssign tells an aggregator about one leaf it must receive and write.
type leafAssign struct {
	Leaf    int
	Bounds  geom.Box
	Senders []int // member ranks holding particles (may include the aggregator)
	Counts  []int64
}

// assignMsg is rank 0's scatter payload (Figure 1a, end).
type assignMsg struct {
	// Aggregator is the rank this rank must send its particles to, or -1
	// if it holds none.
	Aggregator int
	// Leaves are the leaves this rank aggregates (usually zero or one).
	Leaves []leafAssign
}

// reportMsg carries an aggregator's per-leaf report to rank 0 in the
// write's closing gather (Figure 1d). Err marks a leaf whose build or write
// failed; rank 0 then skips the metadata and the write fails everywhere.
type reportMsg struct {
	meta.LeafReport
	Err string
}

// encodeRecord builds one rank's part of the write's closing gather: its
// phase timings as six little-endian int64s, fixed width so the gather's
// bytes do not depend on the measured times, then, on an aggregator, its
// leaf reports.
func encodeRecord(pt PhaseTimes, reports []reportMsg) []byte {
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, pt); err != nil {
		panic(fmt.Sprintf("core: encoding phase times: %v", err))
	}
	if len(reports) > 0 {
		buf.Write(encode(reports))
	}
	return buf.Bytes()
}

// decodeRecord reverses encodeRecord.
func decodeRecord(raw []byte) (PhaseTimes, []reportMsg, error) {
	var pt PhaseTimes
	rd := bytes.NewReader(raw)
	if err := binary.Read(rd, binary.LittleEndian, &pt); err != nil {
		return pt, nil, err
	}
	var reports []reportMsg
	if rd.Len() > 0 {
		if err := decode(raw[len(raw)-rd.Len():], &reports); err != nil {
			return pt, nil, err
		}
	}
	return pt, reports, nil
}

// queryMsg asks a read aggregator for the particles of one leaf matching
// the requester's query (Figure 3c). Checkpoint-restart reads use a plain
// bounds query; in situ analytics may add attribute filters and a
// progressive quality window (§IV-B: "this query mechanism can also be
// leveraged to enable distributed data access for in situ analytics").
type queryMsg struct {
	Leaf    int
	Bounds  *geom.Box
	Filters []bat.AttrFilter
	PrevQ   float64
	Quality float64
}

func (q queryMsg) toBAT() bat.Query {
	return bat.Query{
		Bounds:      q.Bounds,
		Filters:     q.Filters,
		PrevQuality: q.PrevQ,
		Quality:     q.Quality,
	}
}

// encode gob-serializes a control message.
func encode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		// Control messages are library-defined types; failure to encode
		// them is a programming error.
		panic(fmt.Sprintf("core: encoding %T: %v", v, err))
	}
	return buf.Bytes()
}

// decode gob-deserializes a control message.
func decode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
