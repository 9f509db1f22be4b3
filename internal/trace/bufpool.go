package trace

import (
	"sync"
	"sync/atomic"
)

// Buffer pooling for the synthesis hot paths. The pipeline's inner loops —
// the recorder's key scratch, the encoder's size tables, the merge
// stage's id maps and globalized sequences, the spill table's read
// window — churn through short-lived slices whose lifetimes are easy to
// name but whose allocation pressure dominates profiles at high rank
// counts. Every buffer has exactly one owner at a time and
// follows a get()/unref() discipline:
//
//   - GetInts/GetBytes hand out a buffer owned by the caller, with exactly
//     the requested length. Contents are UNSPECIFIED (stale data from the
//     previous user); callers must overwrite before reading.
//   - Unref releases it to the pool. A second Unref panics — an ownership
//     bug that must fail loudly rather than corrupt a recycled buffer.
//
// Never retain b.S (or a sub-slice) past Unref: the next GetInts may hand
// the same backing array to an unrelated goroutine. Ownership rules per
// call site are catalogued in DESIGN.md §14.

// Buf is a pooled slice; IntBuf and ByteBuf are the two kinds in use.
type Buf[T any] struct {
	S    []T
	live atomic.Bool
	pool *sync.Pool
}

type (
	IntBuf  = Buf[int]
	ByteBuf = Buf[byte]
)

var (
	intBufPool  = sync.Pool{New: func() any { return new(IntBuf) }}
	byteBufPool = sync.Pool{New: func() any { return new(ByteBuf) }}
)

// GetInts returns a pooled buffer of length n (unspecified contents).
func GetInts(n int) *IntBuf { return get[int](&intBufPool, n) }

// GetBytes returns a pooled buffer of length n (unspecified contents).
func GetBytes(n int) *ByteBuf { return get[byte](&byteBufPool, n) }

func get[T any](pool *sync.Pool, n int) *Buf[T] {
	b := pool.Get().(*Buf[T])
	b.pool = pool
	b.live.Store(true)
	if cap(b.S) < n {
		b.S = make([]T, n)
	} else {
		b.S = b.S[:n]
	}
	return b
}

// Unref returns the buffer to the pool. Nil-safe so optional buffers can
// be released unconditionally.
func (b *Buf[T]) Unref() {
	if b == nil {
		return
	}
	if !b.live.Swap(false) {
		panic("trace: pooled buffer released twice")
	}
	b.pool.Put(b)
}
