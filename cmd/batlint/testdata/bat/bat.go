// Package bat is the fixture tree of cmd/batlint's own test: its import
// path ends in the "bat" element, so the format-package analyzers apply.
// It holds one live finding and one waived one.
package bat

import "encoding/binary"

func count(buf []byte) int {
	return int(binary.LittleEndian.Uint64(buf))
}

func low(acc uint64) byte {
	return byte(acc) //batlint:ignore uintcast fixture: truncation intended
}
