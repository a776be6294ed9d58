package core

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

func floatsFromBytes(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRawFieldRoundTrip: the raw codec must preserve every bit pattern,
// including NaN payloads, infinities, negative zero and denormals.
func TestRawFieldRoundTrip(t *testing.T) {
	in := []float64{
		0, math.Copysign(0, -1), 1.5, -2.75e-308, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0x7ff8000000000001), 5e-324,
	}
	enc := appendRawField(nil, in)
	if len(enc) != 8*len(in) {
		t.Fatalf("raw encoding is %d bytes for %d samples", len(enc), len(in))
	}
	out := make([]float64, len(in))
	decodeRawField(out, enc)
	if !bitsEqual(in, out) {
		t.Fatalf("raw round trip diverged:\nin  %v\nout %v", in, out)
	}
	// fieldCRC must match the CRC of the raw encoding regardless of how
	// the staging chunk divides the field.
	for _, chunkLen := range []int{8, 24, 4096} {
		if got, want := fieldCRC(in, make([]byte, chunkLen)), crcOfBytes(enc); got != want {
			t.Fatalf("fieldCRC (chunk %d) = %#x, want CRC of the raw encoding %#x", chunkLen, got, want)
		}
	}
}

func crcOfBytes(b []byte) uint32 {
	return crc32.Checksum(b, ckptCRC)
}

// FuzzFieldCodec drives the v2 raw field codec from arbitrary byte
// strings: encode/decode must be the identity on bit patterns, and
// fieldCRC must equal the CRC of the raw encoding.
func FuzzFieldCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 8*64))
	f.Fuzz(func(t *testing.T, b []byte) {
		in := floatsFromBytes(b)
		raw := appendRawField(nil, in)
		out := make([]float64, len(in))
		decodeRawField(out, raw)
		if !bitsEqual(out, in) {
			t.Fatal("raw field round trip diverged")
		}
		if fieldCRC(in, make([]byte, 64)) != crcOfBytes(raw) {
			t.Fatal("fieldCRC disagrees with CRC of the raw encoding")
		}
	})
}
