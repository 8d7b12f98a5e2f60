package core

import (
	"errors"
	"fmt"

	"libbat/internal/binfmt"
	"libbat/internal/fabric"
)

// ErrPartial marks a collective read that returned usable particles for
// some leaves while others failed (damaged or missing files). Callers get
// the surviving data plus per-leaf diagnostics in ReadStats.LeafErrors.
var ErrPartial = errors.New("core: partial result")

// agreeOnError is the pipelines' error-agreement collective: an allreduce
// of failure records, to which a rank that failed contributes one record
// and a rank that succeeded contributes nothing, so an agreement nobody
// fails carries no payload. The reduction folds in ascending rank order,
// so the records arrive sorted by rank. It returns nil only when every
// rank passed nil; otherwise every rank gets the error agreedError builds.
// Replacing a plain completion barrier with this call is what lets one
// rank's failure unwind the whole collective instead of deadlocking it
// (DESIGN.md §7).
func agreeOnError(c *fabric.Comm, op string, local error) error {
	var mine []byte
	if local != nil {
		mine = appendFailure(nil, c.Rank(), local.Error())
	}
	records := c.Allreduce(mine, func(acc, next []byte) []byte { return append(acc, next...) })
	return agreedError(op, records, local)
}

// appendFailure appends one failed rank's record to buf: the rank as a
// u32, then the message as a wire string.
func appendFailure(buf []byte, rank int, msg string) []byte {
	if msg == "" {
		msg = "unspecified error"
	}
	w := binfmt.Writer{Buf: buf}
	w.U32(uint32(rank))
	putStr(&w, msg)
	return w.Buf
}

// agreedError turns the agreed failure records into this rank's outcome:
// nil when there are none, otherwise an error naming the failed ranks in
// record order. A rank that failed locally keeps its own error wrapped; any
// other rank sees the first record's message. Every rank decodes the same
// records, so malformed ones fail the collective everywhere alike.
func agreedError(op string, records []byte, local error) error {
	var failed []int
	first := ""
	r := binfmt.NewReader(records)
	for r.Err() == nil && r.Remaining() > 0 {
		rank, msg := int(r.U32()), getStr(r)
		if failed == nil {
			first = msg
		}
		failed = append(failed, rank)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: %s: malformed failure records: %w", op, err)
	}
	if len(failed) == 0 {
		return nil
	}
	if local != nil {
		return fmt.Errorf("core: %s failed on rank(s) %v: %w", op, failed, local)
	}
	return fmt.Errorf("core: %s failed on rank(s) %v: %s", op, failed, first)
}
