package checksum

import "testing"

func TestKnownValue(t *testing.T) {
	// RFC 3720 test vector: CRC32C of 32 zero bytes.
	if got := CRC32C(make([]byte, 32)); got != 0x8a9136aa {
		t.Errorf("CRC32C(zeros) = %#x, want 0x8a9136aa", got)
	}
}

func TestSingleBitFlipDetected(t *testing.T) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	want := CRC32C(data)
	for i := 0; i < len(data); i++ {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if CRC32C(data) == want {
				t.Fatalf("flip of byte %d bit %d not detected", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}
