// Package frame is the one framing codec under every binary format in this
// repository: WAL segments (RKWL), checkpoint images (RKCP), the update
// ingestion stream (RKUP), the delta stream (RKDS) and the replication log
// response (RKRL). All five are a header followed by frames:
//
//	header: 4-byte magic | u32 version
//	frame:  u32 len(payload) | u32 crc32c(payload) | payload
//
// Integers are little-endian; the checksum is CRC-32 with the Castagnoli
// polynomial; a frame's payload is never empty. A checkpoint is a header
// plus exactly one frame. What a payload holds is the business of the
// package that owns the format — each documents its own layout and decodes
// it with a Cursor.
//
// The package only reports what it found: a frame that ends early is
// ErrTorn, a length of zero or above the caller's bound is ErrBadLength, a
// checksum mismatch is ErrBadCRC. What follows is the caller's policy —
// WAL recovery cuts the log back to the last good frame (a crash tears at
// most the tail), transports fail the request (a byte stream arrives
// intact or not at all).
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

const (
	// HeaderLen is the byte length of a magic | version header.
	HeaderLen = 8
	// Overhead is the byte length of the len | crc prefix of one frame.
	Overhead = 8
)

// The ways a frame can be unreadable; test with errors.Is.
var (
	ErrTorn      = errors.New("frame: torn frame")
	ErrBadLength = errors.New("frame: bad frame length")
	ErrBadCRC    = errors.New("frame: checksum mismatch")
)

// ErrTruncated is what a Cursor reports after a read past the end of its
// payload.
var ErrTruncated = errors.New("frame: payload truncated")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of p, the checksum every frame carries.
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// AppendHeader appends the magic | version header to b.
func AppendHeader(b []byte, magic string, version uint32) []byte {
	return binary.LittleEndian.AppendUint32(append(b, magic...), version)
}

// ParseHeader checks that b starts with a header carrying magic and
// returns its version. Which versions are acceptable is the caller's call.
func ParseHeader(b []byte, magic string) (version uint32, err error) {
	if len(b) < HeaderLen {
		return 0, fmt.Errorf("frame: %d-byte header, want %d: %w", len(b), HeaderLen, ErrTorn)
	}
	if string(b[:4]) != magic {
		return 0, fmt.Errorf("frame: bad magic %q, want %q", b[:4], magic)
	}
	return binary.LittleEndian.Uint32(b[4:]), nil
}

// Append appends one frame to b. The payload is whatever fill appends to
// the slice it is handed; it is framed where it lands — the eight prefix
// bytes are reserved first and patched once the payload is known — so a
// frame costs no copy and, given capacity, no allocation.
func Append(b []byte, fill func([]byte) []byte) []byte {
	at := len(b)
	b = fill(append(b, 0, 0, 0, 0, 0, 0, 0, 0))
	payload := b[at+Overhead:]
	binary.LittleEndian.PutUint32(b[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[at+4:], Checksum(payload))
	return b
}

// parsePrefix validates a frame's declared length against max and returns
// it with the expected checksum.
func parsePrefix(p []byte, max int) (n int, sum uint32, err error) {
	n64 := uint64(binary.LittleEndian.Uint32(p))
	if n64 == 0 || n64 > uint64(max) {
		return 0, 0, fmt.Errorf("%w %d (want 1..%d)", ErrBadLength, n64, max)
	}
	return int(n64), binary.LittleEndian.Uint32(p[4:]), nil
}

// Next splits the first frame off b, returning its verified payload (a
// sub-slice of b) and the bytes after it. max bounds the declared length.
// An empty b is io.EOF.
func Next(b []byte, max int) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, io.EOF
	}
	if len(b) < Overhead {
		return nil, b, ErrTorn
	}
	n, sum, err := parsePrefix(b, max)
	if err != nil {
		return nil, b, err
	}
	if len(b)-Overhead < n {
		return nil, b, ErrTorn
	}
	payload = b[Overhead : Overhead+n]
	if Checksum(payload) != sum {
		return nil, b, ErrBadCRC
	}
	return payload, b[Overhead+n:], nil
}

// Reader reads frames off a stream into one reused buffer.
type Reader struct {
	r   io.Reader
	max int
	buf []byte
}

// NewReader returns a Reader over r that rejects frames longer than max
// before allocating for them.
func NewReader(r io.Reader, max int) *Reader { return &Reader{r: r, max: max} }

// Header reads the stream's magic | version header and returns the version.
func (fr *Reader) Header(magic string) (uint32, error) {
	hdr, err := fr.fill(HeaderLen)
	if err != nil {
		return 0, err
	}
	return ParseHeader(hdr, magic)
}

// Next returns the next frame's verified payload, valid until the
// following call. A stream that ends between frames is io.EOF; one that
// ends inside a frame is ErrTorn. Any other read error is returned as the
// underlying reader gave it, wrapped.
func (fr *Reader) Next() ([]byte, error) {
	prefix, err := fr.fill(Overhead)
	if err != nil {
		return nil, err
	}
	n, sum, err := parsePrefix(prefix, fr.max)
	if err != nil {
		return nil, err
	}
	payload, err := fr.fill(n)
	if err == io.EOF {
		err = ErrTorn
	}
	if err != nil {
		return nil, err
	}
	if Checksum(payload) != sum {
		return nil, ErrBadCRC
	}
	return payload, nil
}

// fill reads exactly n bytes into the reused buffer. io.EOF means the
// stream ended before the first of them.
func (fr *Reader) fill(n int) ([]byte, error) {
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	b := fr.buf[:n]
	switch _, err := io.ReadFull(fr.r, b); err {
	case nil:
		return b, nil
	case io.EOF:
		return nil, io.EOF
	case io.ErrUnexpectedEOF:
		return nil, ErrTorn
	default:
		return nil, fmt.Errorf("frame: read: %w", err)
	}
}

// Cursor is a bounds-checked reader over one payload. Reading past the end
// returns zero values and records an error; Done reports it, so decoders
// read a whole structure and check once. The zero Cursor is empty.
type Cursor struct {
	buf []byte // unread bytes; nil once the cursor failed
	err error
}

// NewCursor returns a Cursor over payload.
func NewCursor(payload []byte) Cursor { return Cursor{buf: payload} }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if len(c.buf) < 1 {
		c.Fail(ErrTruncated)
		return 0
	}
	v := c.buf[0]
	c.buf = c.buf[1:]
	return v
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if len(c.buf) < 4 {
		c.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.buf)
	c.buf = c.buf[4:]
	return v
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if len(c.buf) < 8 {
		c.Fail(ErrTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.buf)
	c.buf = c.buf[8:]
	return v
}

// I32 reads a little-endian int32.
func (c *Cursor) I32() int32 { return int32(c.U32()) }

// F64 reads a float64 stored as its IEEE 754 bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Bytes reads the next n bytes as a sub-slice of the payload.
func (c *Cursor) Bytes(n int) []byte {
	if n < 0 || len(c.buf) < n {
		c.Fail(ErrTruncated)
		return nil
	}
	v := c.buf[:n]
	c.buf = c.buf[n:]
	return v
}

// Count reads a u32 element count and checks it against the bytes that
// remain, given the least one element can occupy — so a corrupt count can
// never size an allocation. An implausible count fails the cursor and
// reads as zero.
func (c *Cursor) Count(minElem int) int {
	n := c.U32()
	if uint64(n) > uint64(len(c.buf)/minElem) {
		c.Fail(fmt.Errorf("frame: implausible element count %d with %d bytes left", n, len(c.buf)))
		return 0
	}
	return int(n)
}

// Len returns how many bytes remain unread (zero once the cursor failed).
func (c *Cursor) Len() int { return len(c.buf) }

// Fail records err unless an earlier error already stands; every later
// read then returns zero.
func (c *Cursor) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf = nil
}

// Done returns the first error the cursor met, or an error if payload
// bytes remain unread.
func (c *Cursor) Done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("frame: %d trailing bytes after the payload", len(c.buf))
	}
	return nil
}
