package wire

import "sync"

// Size-classed buffer pooling for the hot encode path.
//
// Encoding a message allocates nothing in steady state: the Writer's
// backing storage comes from one of a handful of size-classed
// sync.Pools and goes back when the caller Releases the Writer. The
// pools traffic in *pbuf (a pointer-shaped wrapper), so neither Get nor
// Put boxes a slice header into an interface.
//
// Ownership contract (see also DESIGN.md §9):
//
//   - GetWriter hands the caller exclusive ownership of the Writer and
//     its buffer.
//   - Writer.Bytes aliases the pooled storage. The slice is valid until
//     Release; after Release another goroutine may receive the same
//     backing array from GetWriter, so a retained Bytes result is
//     corruption waiting to happen. Callers that need the encoding
//     beyond Release must copy first.
//   - Release must be called at most once. Dropping a Writer without
//     Release is safe (the garbage collector reclaims it); the pool
//     just loses one buffer.

// classSizes are the pooled buffer capacities, smallest first. The
// smallest class comfortably fits the dominant SDVM messages (header +
// a small payload); the largest covers a full coalescing envelope and
// sizeable memory migrations. Anything bigger falls through to a plain
// allocation.
var classSizes = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// pbuf is one pooled backing buffer. cls remembers the owning size
// class so putBuf can return it without searching; -1 marks an oversize
// buffer that bypasses the pool.
type pbuf struct {
	b   []byte
	cls int8
}

var bufPools [len(classSizes)]sync.Pool

func init() {
	for i := range bufPools {
		size := classSizes[i]
		cls := int8(i)
		bufPools[i].New = func() any { return &pbuf{b: make([]byte, 0, size), cls: cls} }
	}
}

// getBuf returns a buffer with capacity at least n, pooled when n fits
// a size class.
func getBuf(n int) *pbuf {
	for i := range classSizes {
		if n <= classSizes[i] {
			pb, _ := bufPools[i].Get().(*pbuf)
			return pb
		}
	}
	//sdvmlint:allow allocfree -- oversize (>1 MiB) buffers bypass the pool; bounded by transport.MaxDatagram and rare
	return &pbuf{b: make([]byte, 0, n), cls: -1}
}

// putBuf returns a buffer to its pool. Oversize buffers are dropped for
// the garbage collector, so one huge message cannot pin a huge pool
// entry forever.
func putBuf(pb *pbuf) {
	if pb == nil || pb.cls < 0 {
		return
	}
	pb.b = pb.b[:0]
	//sdvmlint:allow wiretaint -- cls is set by init and getBuf, never decoded from a peer
	bufPools[pb.cls].Put(pb)
}

// writerPool recycles the Writer structs themselves, so GetWriter
// allocates neither the Writer nor its buffer in steady state.
var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns an empty pooled Writer whose initial capacity is at
// least sizeHint (a zero hint selects the smallest class). The caller
// owns the Writer until Release.
func GetWriter(sizeHint int) *Writer {
	w, _ := writerPool.Get().(*Writer)
	w.pb = getBuf(sizeHint)
	w.buf = w.pb.b[:0]
	return w
}

// Release returns the Writer and its buffer to their pools. The buffer
// returned by Bytes is invalid from this point on: the same backing
// array may immediately be handed to another goroutine. Release on a
// Writer not obtained from GetWriter returns only what is poolable and
// is always safe.
func (w *Writer) Release() {
	pb := w.pb
	w.pb = nil
	w.buf = nil
	putBuf(pb)
	writerPool.Put(w)
}
