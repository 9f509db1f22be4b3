package check

import "sort"

// freeList hands out pointers from chunked backing arrays and takes them
// back once the machine is done with them. The machine allocates one
// vmsg/vrecv/vreq/vslot per matching event; individual heap allocations
// dominated its profile, and keeping every object alive made its memory
// grow with the event count. Chunks are never grown in place (a full chunk
// is replaced, not reallocated), so handed-out pointers stay valid, and a
// released object is reused before a new chunk is cut, so the live set is
// bounded by what is in flight. get returns stale contents; every caller
// overwrites the whole value.
type freeList[T any] struct {
	chunk []T
	free  []*T
}

const freeListChunk = 256

func (l *freeList[T]) get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	if len(l.chunk) == cap(l.chunk) {
		l.chunk = make([]T, 0, freeListChunk)
	}
	var zero T
	l.chunk = append(l.chunk, zero)
	return &l.chunk[len(l.chunk)-1]
}

// put returns x to the list. The caller must hold the only reference.
func (l *freeList[T]) put(x *T) {
	if releaseHook != nil {
		releaseHook(x)
	}
	l.free = append(l.free, x)
}

// releaseHook, when set, sees every object before it goes back to a free
// list. Only tests set it (to poison released objects), and never while a
// machine runs.
var releaseHook func(any)

// poolTable maps pool numbers (and communicator instance ids) to values.
// Well-formed programs use small, dense, non-negative numbers, served from
// a slice; decoded programs can carry arbitrary numbers, which fall back to
// a map so a corrupt input cannot force a huge dense allocation. The zero
// value of V means absent — no caller stores a nil pointer or a zero count.
type poolTable[V comparable] struct {
	dense  []V
	sparse map[int]V
}

// maxDensePool bounds the dense side: one entry per pool number is cheap up
// to here, and anything larger only appears in hand-crafted inputs.
const maxDensePool = 1 << 12

func (t *poolTable[V]) get(k int) V {
	if k >= 0 && k < len(t.dense) {
		return t.dense[k]
	}
	if k >= 0 && k < maxDensePool {
		var zero V
		return zero
	}
	return t.sparse[k]
}

func (t *poolTable[V]) set(k int, v V) {
	if k >= 0 && k < maxDensePool {
		var zero V
		for len(t.dense) <= k {
			t.dense = append(t.dense, zero)
		}
		t.dense[k] = v
		return
	}
	if t.sparse == nil {
		t.sparse = map[int]V{}
	}
	t.sparse[k] = v
}

// each visits live entries: dense keys ascending, then sparse keys sorted,
// so iteration is deterministic. Callers that need a global key order sort
// the collected keys themselves.
func (t *poolTable[V]) each(fn func(k int, v V)) {
	var zero V
	for k, v := range t.dense {
		if v != zero {
			fn(k, v)
		}
	}
	if len(t.sparse) > 0 {
		keys := make([]int, 0, len(t.sparse))
		for k := range t.sparse { //maporder:ok — sorted below
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			if v := t.sparse[k]; v != zero {
				fn(k, v)
			}
		}
	}
}
