// Package checksum provides the CRC32C (Castagnoli) checksums used by the
// on-disk formats. CRC32C is hardware accelerated on amd64/arm64 through
// hash/crc32 and detects any single-bit flip (and any burst error up to 32
// bits) in a protected section.
package checksum

import "hash/crc32"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC32C returns the Castagnoli CRC of data.
func CRC32C(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
