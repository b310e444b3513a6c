// Package wire implements the SDVM's on-the-wire message format, the
// SDMessage (paper §4, message manager).
//
// An SDMessage is addressed manager-to-manager: its header carries the
// source and destination site ids and manager ids, a sequence number for
// request/reply correlation, and a payload kind tag. Payloads are encoded
// with an explicit little-endian binary codec — no reflection — so the
// format is deterministic, platform-independent, and cheap enough that
// serialization does not dominate the small messages the SDVM exchanges
// (the paper notes TCP setup overhead already dominates; the encoding must
// not add to it).
//
// The hot path is allocation-free: Writers draw pooled, size-classed
// buffers (GetWriter/Release, pool.go) and write with ensure-then-put
// primitives instead of append, and Decoder (message.go) reuses one
// scratch payload per kind with Reader views into the input buffer.
// TestAllocs (codec_bench_test.go) holds the encode and decode paths of
// the hot message kinds to 0 allocs/op.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/types"
)

// maxSliceLen bounds decoded slice lengths to keep a corrupt or malicious
// length prefix from provoking a huge allocation.
const maxSliceLen = 1 << 28

// Writer serializes values into a growing byte buffer. The zero value is
// ready to use. Writer never fails; the buffer grows as needed. Pooled
// Writers come from GetWriter and return their storage via Release.
type Writer struct {
	buf []byte
	pb  *pbuf // pooled backing storage; nil for unpooled writers
}

// NewWriter returns an unpooled Writer with the given initial capacity.
// Hot-path callers use GetWriter instead.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer. The slice aliases the Writer's
// internal storage and is invalidated by further writes — and, for
// pooled Writers, by Release.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset clears the buffer, retaining capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// room extends the buffer by n bytes and returns the offset the caller
// writes at. This is the single growth point of the writer: everything
// else is a bounds-checked copy into already-owned storage.
func (w *Writer) room(n int) int {
	off := len(w.buf)
	if off+n > cap(w.buf) {
		w.grow(off + n)
	}
	w.buf = w.buf[:off+n]
	return off
}

// grow swaps the contents into a larger pooled buffer. Doubling keeps
// the number of swaps logarithmic; the outgrown buffer goes straight
// back to its pool.
func (w *Writer) grow(need int) {
	if need < 2*cap(w.buf) {
		need = 2 * cap(w.buf)
	}
	npb := getBuf(need)
	nb := npb.b[:len(w.buf)]
	copy(nb, w.buf)
	w.buf = nb
	putBuf(w.pb)
	w.pb = npb
}

// Reserve ensures at least n spare bytes of capacity beyond the current
// length, growing (and re-pooling) as needed. The length is unchanged.
// The network manager uses this to guarantee in-place seal headroom.
func (w *Writer) Reserve(n int) {
	if len(w.buf)+n > cap(w.buf) {
		w.grow(len(w.buf) + n)
	}
}

// Uint8 appends one byte.
func (w *Writer) Uint8(v uint8) {
	off := w.room(1)
	w.buf[off] = v
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Uint8(1)
	} else {
		w.Uint8(0)
	}
}

// Uint16 appends a little-endian uint16.
func (w *Writer) Uint16(v uint16) {
	off := w.room(2)
	binary.LittleEndian.PutUint16(w.buf[off:], v)
}

// Uint32 appends a little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	off := w.room(4)
	binary.LittleEndian.PutUint32(w.buf[off:], v)
}

// Uint64 appends a little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	off := w.room(8)
	binary.LittleEndian.PutUint64(w.buf[off:], v)
}

// Uint32BE appends a big-endian uint32. Envelope framing (netmgr batch
// records, transport length prefixes) is big-endian by convention;
// message payloads stay little-endian.
func (w *Writer) Uint32BE(v uint32) {
	off := w.room(4)
	binary.BigEndian.PutUint32(w.buf[off:], v)
}

// Int16 appends a little-endian int16.
func (w *Writer) Int16(v int16) { w.Uint16(uint16(v)) }

// Int32 appends a little-endian int32.
func (w *Writer) Int32(v int32) { w.Uint32(uint32(v)) }

// Int64 appends a little-endian int64.
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Float64 appends an IEEE-754 double.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Raw appends b verbatim, with no length prefix. Envelope assembly uses
// this for pre-encoded records.
func (w *Writer) Raw(b []byte) {
	off := w.room(len(b))
	copy(w.buf[off:], b)
}

// Zero appends n zero bytes (e.g. seal-prefix headroom).
func (w *Writer) Zero(n int) {
	off := w.room(n)
	clear(w.buf[off:])
}

// Bytes32 appends a uint32 length prefix followed by the bytes. A nil
// slice and an empty slice encode identically.
func (w *Writer) Bytes32(b []byte) {
	w.Uint32(uint32(len(b)))
	w.Raw(b)
}

// String appends a uint32 length prefix followed by the string bytes.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	off := w.room(len(s))
	copy(w.buf[off:], s)
}

// SiteID appends a logical site id.
func (w *Writer) SiteID(s types.SiteID) { w.Uint32(uint32(s)) }

// ProgramID appends a program id.
func (w *Writer) ProgramID(p types.ProgramID) { w.Uint64(uint64(p)) }

// ThreadID appends a microthread id.
func (w *Writer) ThreadID(t types.ThreadID) {
	w.ProgramID(t.Program)
	w.Uint32(t.Index)
}

// Addr appends a global memory address.
func (w *Writer) Addr(a types.GlobalAddr) {
	w.SiteID(a.Home)
	w.Uint64(a.Local)
}

// decodeError is the Reader's allocation-free error value: it lives
// inside the Reader itself and is filled in without fmt on the failure
// path. Formatting happens lazily in Error, which only runs when
// somebody prints the error.
type decodeError struct {
	what string
	off  int
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("%v: truncated %s at offset %d", types.ErrBadMessage, e.what, e.off)
}

func (e *decodeError) Unwrap() error { return types.ErrBadMessage }

// Reader decodes values from a byte buffer. Errors are sticky: after the
// first failure every subsequent read returns the zero value and Err()
// keeps reporting the failure, so calling code can decode a whole struct
// and check the error once.
//
// A Reader in alias mode (used by Decoder) returns byte slices that
// view the input buffer instead of copies; see Bytes32.
type Reader struct {
	buf   []byte
	off   int
	err   error
	alias bool
	errv  decodeError
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil. For Readers embedded in
// a reused Decoder the error is valid until the next Decode call.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.errv = decodeError{what: what, off: r.off}
		r.err = &r.errv
	}
}

func (r *Reader) take(n int, what string) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) || n < 0 {
		r.fail(what)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	b := r.take(1, "uint8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint16 reads a little-endian uint16.
func (r *Reader) Uint16() uint16 {
	b := r.take(2, "uint16")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	b := r.take(4, "uint32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	b := r.take(8, "uint64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int16 reads a little-endian int16.
func (r *Reader) Int16() int16 { return int16(r.Uint16()) }

// Int32 reads a little-endian int32.
func (r *Reader) Int32() int32 { return int32(r.Uint32()) }

// Int64 reads a little-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Float64 reads an IEEE-754 double.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bytes32 reads a uint32-length-prefixed byte slice. An empty slice
// decodes as nil. In the default mode the result is a copy, safe to
// retain; in alias mode (Decoder) it is a capacity-clamped view of the
// input buffer, valid only as long as the buffer is.
func (r *Reader) Bytes32() []byte {
	n := r.Uint32()
	if n == 0 {
		return nil
	}
	if n > maxSliceLen {
		r.fail("bytes length")
		return nil
	}
	b := r.take(int(n), "bytes body")
	if b == nil {
		return nil
	}
	if r.alias {
		return b[:n:n]
	}
	//sdvmlint:allow allocfree -- copy branch: at run time the hotpath root (Decoder.Decode) always sets alias and takes the view branch; only the materializing Decode, whose output is retained, copies
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a uint32-length-prefixed string.
func (r *Reader) String() string {
	n := r.Uint32()
	if n == 0 {
		return ""
	}
	if n > maxSliceLen {
		r.fail("string length")
		return ""
	}
	b := r.take(int(n), "string body")
	//sdvmlint:allow allocfree -- Go strings are immutable, so decoding one costs a copy by definition; none of the hot message kinds (ApplyParam, HelpReply, MemWrite, MemInvalidateBatch) carry strings
	return string(b)
}

// SliceLen reads a uint32 element count and validates it against the
// bytes remaining in the buffer: a well-formed encoding carries at
// least elemSize bytes per element, so any larger count is a corrupt or
// malicious length prefix, failed here — before the caller allocates.
// This is the only sanctioned way to size a slice from wire data; the
// wiretaint analyzer treats its result as clean.
func (r *Reader) SliceLen(elemSize int, what string) int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if int64(n)*int64(elemSize) > int64(r.Remaining()) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

// SiteID reads a logical site id.
func (r *Reader) SiteID() types.SiteID { return types.SiteID(r.Uint32()) }

// ProgramID reads a program id.
func (r *Reader) ProgramID() types.ProgramID { return types.ProgramID(r.Uint64()) }

// ThreadID reads a microthread id.
func (r *Reader) ThreadID() types.ThreadID {
	return types.ThreadID{Program: r.ProgramID(), Index: r.Uint32()}
}

// Addr reads a global memory address.
func (r *Reader) Addr() types.GlobalAddr {
	return types.GlobalAddr{Home: r.SiteID(), Local: r.Uint64()}
}

// grow returns s with length n, reusing the backing array when it is
// large enough. Slots between the old and new length keep their previous
// contents (a new backing array is zeroed); decode loops overwrite every
// live element, and pointer-slice decoders reuse the surviving pointees.
// In a reused Decoder this allocates only until a payload's high-water
// size is reached.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	//sdvmlint:allow allocfree -- grows once to the payload's high-water element count; steady-state decode reuses the backing array
	return make([]T, n)
}

// growFrames is grow for []*Microframe, additionally ensuring every slot
// holds a reusable frame instance.
func growFrames(s []*Microframe, n int) []*Microframe {
	s = grow(s, n)
	for i := range s {
		if s[i] == nil {
			//sdvmlint:allow allocfree -- fills empty frame slots once; steady-state decode reuses the instances
			s[i] = new(Microframe)
		}
	}
	return s
}
