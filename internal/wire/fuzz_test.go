package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// FuzzBinaryFrame drives the frame decoder with arbitrary bytes: it must
// never panic, never allocate past the byte budget, every rejection must
// map to a well-formed HTTP status, and every frame it does accept must
// re-encode to a byte-identical frame — the decoder and encoder agree on
// the format exactly. CI runs this target for a short burst on every push;
// `go test -fuzz=FuzzBinaryFrame ./internal/wire/` explores further.
func FuzzBinaryFrame(f *testing.F) {
	seed := func(m [][]float64) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed([][]float64{{1, 2, 3}, {4, 5, 6}}))
	f.Add(seed([][]float64{{math.Pi, math.Inf(1), math.NaN()}}))
	// A frame with the flags byte set: the decoder must reject it.
	f.Add([]byte(frameMagic + "\x01\x01\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x3f\x00\x00\x80\xbe"))
	f.Add(seed([][]float64{}))
	f.Add(seed([][]float64{{}, {}}))
	f.Add([]byte{})
	f.Add([]byte(frameMagic))
	f.Add([]byte(frameMagic + "\x01\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("NOPE\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00"))

	const budget = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > budget {
			return
		}
		fr := NewFrameReader(bytes.NewReader(data), budget)
		for {
			m, err := fr.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if s := DecodeStatus(err); s != 400 && s != 413 {
					t.Fatalf("decode error maps to status %d: %v", s, err)
				}
				if errors.Is(err, ErrTooLarge) != (DecodeStatus(err) == 413) {
					t.Fatalf("ErrTooLarge/413 mismatch: %v", err)
				}
				return
			}
			// Every accepted frame round trips byte for byte. The one
			// exception is a zero-row frame: the decoder drops its cols, so
			// the re-encoded header is the 0x0 canonical form — but both
			// occupy exactly one header.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, m); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if len(m) > 0 && !bytes.HasPrefix(data, buf.Bytes()) {
				t.Fatalf("accepted %d-row frame does not round trip", len(m))
			}
			data = data[buf.Len():]
		}
	})
}

// FuzzJSONEnvelope drives the JSON envelope decoders with arbitrary bytes
// under a small byte cap: they must never panic, every rejection must map
// to 400 or 413 (413 only for a body that reached the cap), and every
// accepted payload must survive encode→decode with identical Float64bits.
func FuzzJSONEnvelope(f *testing.F) {
	for _, s := range []string{
		`{"x":[1,2,3]}`,
		`{"xs":[[1,2],[3]]}`,
		`{"x":[-0,1e308,5e-324,0.1]}`,
		`{"xs":[null,[]]}`,
		`{"x":null}`,
		`{}`,
		`{"y":[1]}`,
		`{"x":[1,`,
		`[1,2]`,
		`{"xs":[[` + string(bytes.Repeat([]byte("1,"), 200)) + `1]]}`,
	} {
		f.Add([]byte(s))
	}

	const limit = 256
	f.Fuzz(func(t *testing.T, data []byte) {
		accepted := func(err error) bool {
			if err == nil {
				return true
			}
			if s := DecodeStatus(err); s != 400 && s != 413 {
				t.Fatalf("decode error maps to status %d: %v", s, err)
			}
			if errors.Is(err, ErrTooLarge) && len(data) < limit {
				t.Fatalf("%d-byte body under the %d-byte cap rejected as too large: %v", len(data), limit, err)
			}
			return false
		}
		if v, err := (JSON{}).DecodeVec(bytes.NewReader(data), limit, "x"); accepted(err) {
			var buf bytes.Buffer
			if err := (JSON{}).EncodeVec(&buf, "x", v); err != nil {
				t.Fatalf("re-encode vec: %v", err)
			}
			back, err := (JSON{}).DecodeVec(&buf, 0, "x")
			if err != nil {
				t.Fatalf("re-decode vec: %v", err)
			}
			sameBits(t, [][]float64{v}, [][]float64{back})
		}
		if m, err := (JSON{}).DecodeMat(bytes.NewReader(data), limit, "xs"); accepted(err) {
			var buf bytes.Buffer
			if err := (JSON{}).EncodeMat(&buf, "xs", m); err != nil {
				t.Fatalf("re-encode mat: %v", err)
			}
			back, err := (JSON{}).DecodeMat(&buf, 0, "xs")
			if err != nil {
				t.Fatalf("re-decode mat: %v", err)
			}
			sameBits(t, m, back)
		}
	})
}

// sameBits fails unless a and b have the same shape and bit patterns.
func sameBits(t *testing.T, a, b [][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("round trip changed the row count: %d -> %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("round trip changed row %d's width: %d -> %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("element [%d][%d] changed bits: %x -> %x", i, j, math.Float64bits(a[i][j]), math.Float64bits(b[i][j]))
			}
		}
	}
}
