package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

const testMax = 1 << 16

func framed(payload []byte) []byte {
	return Append(nil, func(b []byte) []byte { return append(b, payload...) })
}

func TestHeader(t *testing.T) {
	h := AppendHeader([]byte("x"), "RKWL", 7)
	if !bytes.Equal(h, []byte{'x', 'R', 'K', 'W', 'L', 7, 0, 0, 0}) {
		t.Fatalf("AppendHeader = %x", h)
	}
	if v, err := ParseHeader(h[1:], "RKWL"); err != nil || v != 7 {
		t.Fatalf("ParseHeader = %d, %v", v, err)
	}
	if _, err := ParseHeader(h[1:], "RKCP"); err == nil {
		t.Fatal("wrong magic accepted")
	}
	if _, err := ParseHeader(h[1:6], "RKWL"); !errors.Is(err, ErrTorn) {
		t.Fatalf("short header: %v, want ErrTorn", err)
	}
}

// TestFrameErrors: each way a frame can be unreadable is reported as its
// own error, identically by Next and Reader.Next.
func TestFrameErrors(t *testing.T) {
	good := framed([]byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	badCRC := append([]byte(nil), good...)
	badCRC[5] ^= 1
	zeroLen := make([]byte, Overhead)
	overMax := binary.LittleEndian.AppendUint32(nil, testMax+1)
	overMax = append(overMax, 0, 0, 0, 0)

	for _, tc := range []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"torn prefix", good[:5], ErrTorn},
		{"torn payload", good[:len(good)-2], ErrTorn},
		{"prefix only", good[:Overhead], ErrTorn},
		{"flipped payload bit", flipped, ErrBadCRC},
		{"flipped crc bit", badCRC, ErrBadCRC},
		{"zero length", zeroLen, ErrBadLength},
		{"over max", overMax, ErrBadLength},
	} {
		if _, _, err := Next(tc.in, testMax); !errors.Is(err, tc.want) {
			t.Errorf("Next(%s) = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := NewReader(bytes.NewReader(tc.in), testMax).Next(); !errors.Is(err, tc.want) {
			t.Errorf("Reader.Next(%s) = %v, want %v", tc.name, err, tc.want)
		}
	}

	// A read error that is not an EOF keeps its identity.
	boom := errors.New("boom")
	if _, err := NewReader(iotest.ErrReader(boom), testMax).Next(); !errors.Is(err, boom) {
		t.Fatalf("reader error surfaced as %v", err)
	}
}

func TestReaderStream(t *testing.T) {
	stream := AppendHeader(nil, "RKDS", 1)
	stream = append(stream, framed([]byte("one"))...)
	stream = append(stream, framed(bytes.Repeat([]byte("two"), 100))...)
	// One byte at a time: frames must survive arbitrarily short reads.
	r := NewReader(iotest.OneByteReader(bytes.NewReader(stream)), testMax)
	if v, err := r.Header("RKDS"); err != nil || v != 1 {
		t.Fatalf("Header = %d, %v", v, err)
	}
	for _, want := range []string{"one", string(bytes.Repeat([]byte("two"), 100))} {
		got, err := r.Next()
		if err != nil || string(got) != want {
			t.Fatalf("Next = %q, %v; want %q", got, err, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestCursor(t *testing.T) {
	var p []byte
	p = append(p, 9)
	p = binary.LittleEndian.AppendUint32(p, 0xfffffffe)
	p = binary.LittleEndian.AppendUint64(p, 1<<40)
	p = binary.LittleEndian.AppendUint64(p, 0x3fe0000000000000) // 0.5
	p = binary.LittleEndian.AppendUint32(p, 2)
	p = append(p, 'a', 'b')
	c := NewCursor(p)
	if c.Byte() != 9 || c.I32() != -2 || c.U64() != 1<<40 || c.F64() != 0.5 {
		t.Fatal("scalar reads")
	}
	if n := c.Count(1); n != 2 || string(c.Bytes(n)) != "ab" || c.Len() != 0 {
		t.Fatal("count/bytes reads")
	}
	if err := c.Done(); err != nil {
		t.Fatalf("Done = %v", err)
	}

	// Reading past the end is sticky and reads as zeros.
	c = NewCursor([]byte{1, 2, 3})
	if c.U32() != 0 || c.Byte() != 0 || !errors.Is(c.Done(), ErrTruncated) {
		t.Fatalf("short read: Done = %v", c.Done())
	}
	// A count the remaining bytes cannot hold fails before any allocation.
	c = NewCursor(binary.LittleEndian.AppendUint32(nil, 1<<31))
	if n := c.Count(12); n != 0 || c.Done() == nil {
		t.Fatalf("implausible count read as %d, Done = %v", n, c.Done())
	}
	// Trailing bytes are an error; the first error wins over later ones.
	c = NewCursor([]byte{1, 2})
	c.Byte()
	if c.Done() == nil {
		t.Fatal("trailing byte accepted")
	}
	first := errors.New("first")
	c.Fail(first)
	c.U64()
	if c.Done() != first {
		t.Fatalf("Done = %v, want the first error", c.Done())
	}
}

// TestZeroAlloc: on warm buffers the framing layer allocates nothing — a
// lost buffer reuse or an escaping closure shows up here before it shows
// up in a benchmark.
func TestZeroAlloc(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 512)
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		buf = Append(buf[:0], func(b []byte) []byte { return append(b, payload...) })
	}); n != 0 {
		t.Errorf("Append allocates %v times per frame", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := Next(buf, testMax); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Next allocates %v times per frame", n)
	}
	src := bytes.NewReader(buf)
	r := NewReader(src, testMax)
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(buf)
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reader.Next allocates %v times per frame", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		c := NewCursor(payload)
		for c.Len() > 0 {
			c.U64()
		}
		if c.Done() != nil {
			t.Fatal("cursor failed")
		}
	}); n != 0 {
		t.Errorf("Cursor allocates %v times per payload", n)
	}
}

// FuzzFrame: whatever the bytes, Next and Reader.Next agree and never
// panic; Next hands out only sub-slices of its input and the Reader's one
// buffer never outgrows the caller's bound, so no length field sizes an
// allocation before it is checked; and every payload they accept re-frames
// to the exact bytes it was read from.
func FuzzFrame(f *testing.F) {
	good := framed([]byte("hello, frame"))
	f.Add(good)
	f.Add(good[:3])                                   // torn prefix
	f.Add(good[:len(good)-1])                         // torn payload
	f.Add(make([]byte, Overhead))                     // zero length
	f.Add(append([]byte{0, 0, 0xff, 0x7f}, good...))  // over-max length
	f.Add(append(append([]byte(nil), good...), 0xee)) // trailing garbage
	flipped := append([]byte(nil), good...)
	flipped[4] ^= 0x10 // one CRC bit
	f.Add(flipped)
	f.Add(append(append([]byte(nil), good...), good...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), testMax)
		rest := data
		for {
			payload, next, err := Next(rest, testMax)
			streamed, serr := r.Next()
			if (err == nil) != (serr == nil) || !bytes.Equal(payload, streamed) {
				t.Fatalf("Next = %d bytes, %v; Reader.Next = %d bytes, %v", len(payload), err, len(streamed), serr)
			}
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrBadLength) && !errors.Is(err, ErrBadCRC) {
					t.Fatalf("untyped error %v", err)
				}
				if cap(r.buf) > testMax {
					t.Fatalf("reader buffer grew to %d, past the %d-byte bound", cap(r.buf), testMax)
				}
				return
			}
			if len(payload) == 0 || len(payload) > testMax || len(next) != len(rest)-Overhead-len(payload) {
				t.Fatalf("accepted a %d-byte payload out of %d bytes, %d left", len(payload), len(rest), len(next))
			}
			if again := framed(payload); !bytes.Equal(again, rest[:len(again)]) {
				t.Fatalf("re-framed payload differs from its source bytes")
			}
			rest = next
		}
	})
}
