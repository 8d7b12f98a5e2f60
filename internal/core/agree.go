package core

import (
	"encoding/binary"
	"errors"
	"fmt"

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

// appendFailure appends one failed rank's record to buf: the rank and the
// message length as little-endian u32s, then the message.
func appendFailure(buf []byte, rank int, msg string) []byte {
	if msg == "" {
		msg = "unspecified error"
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
	return append(buf, msg...)
}

// agreedError turns the agreed failure records into this rank's outcome:
// nil when there are none, otherwise an error naming the failed ranks in
// record order. A rank that failed locally keeps its own error wrapped; any
// other rank sees the first record's message. The records come from a
// collective over core's own encoding, so malformed input is a programming
// error and panics.
func agreedError(op string, records []byte, local error) error {
	var failed []int
	first := ""
	for len(records) > 0 {
		n := binary.LittleEndian.Uint32(records[4:])
		if failed == nil {
			first = string(records[8 : 8+n])
		}
		failed = append(failed, int(binary.LittleEndian.Uint32(records)))
		records = records[8+n:]
	}
	if len(failed) == 0 {
		return nil
	}
	if local != nil {
		return fmt.Errorf("core: %s failed on rank(s) %v: %w", op, failed, local)
	}
	return fmt.Errorf("core: %s failed on rank(s) %v: %s", op, failed, first)
}
