package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "PLMB"
//	4       1     version, currently 1
//	5       1     flags, must be zero
//	6       2     reserved, must be zero
//	8       4     rows (uint32)
//	12      4     cols (uint32)
//	16      …     rows·cols payload elements, row-major, little-endian
//	              IEEE-754 float64, 8 bytes each
//
// The dims are the length prefix: a reader knows the exact payload size
// before touching it, which is what lets GET /jobs/{id} stream one frame
// per result chunk with no outer envelope — the stream ends at EOF.
// The payload carries the exact in-process bits, so the binary path is
// bit-identical to JSON (whose shortest round-trip formatting restores the
// same bits).
const (
	frameMagic   = "PLMB"
	FrameVersion = 1
	frameHeader  = 16
)

// Binary is the float-frame codec.
type Binary struct{}

// Name returns "binary".
func (Binary) Name() string { return NameBinary }

// ContentType returns the frame MIME type.
func (Binary) ContentType() string { return ContentTypeBinary }

// EncodeVec writes v as a 1×len(v) frame. The field name is JSON-only.
func (Binary) EncodeVec(w io.Writer, _ string, v []float64) error {
	return WriteFrame(w, [][]float64{v})
}

// DecodeVec reads one frame and requires it to be a single row.
func (Binary) DecodeVec(r io.Reader, limit int64, _ string) ([]float64, error) {
	m, err := ReadFrame(r, limit)
	if err != nil {
		return nil, err
	}
	if len(m) != 1 {
		return nil, fmt.Errorf("wire: frame carries %d rows, want a single vector", len(m))
	}
	return m[0], nil
}

// EncodeMat writes m as one rows×cols frame.
func (Binary) EncodeMat(w io.Writer, _ string, m [][]float64) error {
	return WriteFrame(w, m)
}

// DecodeMat reads one frame as a row list.
func (Binary) DecodeMat(r io.Reader, limit int64, _ string) ([][]float64, error) {
	m, err := ReadFrame(r, limit)
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = [][]float64{}
	}
	return m, nil
}

// WriteFrame writes m as one binary frame. All rows must share a width.
func WriteFrame(w io.Writer, m [][]float64) error {
	rows := len(m)
	cols := 0
	if rows > 0 {
		cols = len(m[0])
	}
	for i, row := range m {
		if len(row) != cols {
			return fmt.Errorf("wire: ragged frame: row %d has %d cols, want %d", i, len(row), cols)
		}
	}
	if int64(rows) > math.MaxUint32 || int64(cols) > math.MaxUint32 {
		return fmt.Errorf("wire: frame dims %dx%d exceed uint32", rows, cols)
	}
	var hdr [frameHeader]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = FrameVersion
	binary.LittleEndian.PutUint32(hdr[8:], uint32(rows))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(cols))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 8*cols)
	for _, row := range m {
		for j, v := range row {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one binary frame, spending at most limit bytes
// (non-positive: DefaultMaxBody). A frame whose declared payload exceeds
// the remaining budget fails with ErrTooLarge before any payload
// allocation, so a hostile 16-byte header cannot commit the process to
// gigabytes. io.EOF is returned unwrapped when the reader is exhausted
// before the first header byte — the end-of-stream marker frame readers
// rely on; a header or payload cut off anywhere later is malformed.
func ReadFrame(r io.Reader, limit int64) ([][]float64, error) {
	lr := newLimited(r, limit)
	return readFrame(lr)
}

// FrameReader reads a sequence of frames off one stream, sharing a single
// byte budget across all of them — the GET /jobs/{id} result stream.
type FrameReader struct {
	lr *limited
}

// NewFrameReader builds a reader with the given total byte budget
// (non-positive: DefaultMaxBody).
func NewFrameReader(r io.Reader, limit int64) *FrameReader {
	return &FrameReader{lr: newLimited(r, limit)}
}

// Next returns the next frame, or io.EOF at a clean end of stream.
func (f *FrameReader) Next() ([][]float64, error) {
	return readFrame(f.lr)
}

func readFrame(lr *limited) ([][]float64, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(lr, hdr[:1]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", lr.sticky(err))
	}
	if _, err := io.ReadFull(lr, hdr[1:]); err != nil {
		return nil, fmt.Errorf("wire: read frame header: %w", lr.sticky(noEOF(err)))
	}
	if string(hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("wire: bad frame magic % x", hdr[:4])
	}
	if hdr[4] != FrameVersion {
		return nil, fmt.Errorf("wire: unsupported frame version %d", hdr[4])
	}
	if hdr[5] != 0 {
		return nil, fmt.Errorf("wire: unknown frame flags %#x", hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("wire: nonzero reserved frame bytes")
	}
	rows := int64(binary.LittleEndian.Uint32(hdr[8:]))
	cols := int64(binary.LittleEndian.Uint32(hdr[12:]))
	// Admission control before any allocation: the declared payload — with
	// every row costing at least one byte, so a zero-col frame cannot claim
	// four billion rows for free — must fit the remaining budget.
	perRow := 8 * cols
	if perRow == 0 {
		perRow = 1
	}
	if rows == 0 {
		// No payload follows; return before sizing the row buffer — a
		// zero-row frame may still declare a huge cols.
		return [][]float64{}, nil
	}
	if perRow > math.MaxInt64/rows || rows*perRow > lr.n {
		return nil, fmt.Errorf("wire: frame declares %dx%d payload: %w", rows, cols, ErrTooLarge)
	}
	out := make([][]float64, rows)
	buf := make([]byte, 8*cols)
	for i := range out {
		if _, err := io.ReadFull(lr, buf); err != nil {
			return nil, fmt.Errorf("wire: read frame payload row %d: %w", i, lr.sticky(noEOF(err)))
		}
		row := make([]float64, cols)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		out[i] = row
	}
	return out, nil
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: past the first
// header byte, running out of input is a truncated frame, not a clean end
// of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
