package trace

import (
	"math"
	"math/bits"
)

// Pool implements the paper's free-number pool for renaming runtime handles
// (MPI_Request, MPI_Comm): handles receive the smallest unused number
// starting from zero, and numbers return to the pool when the handle is
// released. This removes the high-entropy runtime values that would defeat
// grammar compression, while any replay that allocates and releases in the
// same order reproduces the exact same numbering.
//
// A slice and a bitset, no map or heap: keys[n] is the key holding number
// n while n's live bit is set. Finding a key scans from the last number
// found, O(live high-water) at worst; it hits at once when handles are
// released in acquisition order, and a key above top, the largest ever
// acquired, is known free without a scan (the runtime's ids increase).
type Pool struct {
	keys []int    // pool number -> handle key, meaningful while live
	live []uint64 // bitset of live pool numbers
	last int      // where find last hit
	top  int      // the largest key ever acquired
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{top: math.MinInt} }

// find returns the pool number of a live key, or -1.
func (p *Pool) find(key int) int {
	if key > p.top {
		return -1
	}
	for i, n := 0, p.last; i < len(p.keys); i++ {
		if p.keys[n] == key && p.live[n>>6]&(1<<(n&63)) != 0 {
			p.last = n
			return n
		}
		if n++; n == len(p.keys) {
			n = 0
		}
	}
	return -1
}

// Acquire assigns the smallest free number to the handle key and returns it.
// Acquiring an already-live key returns its existing number.
func (p *Pool) Acquire(key int) int {
	if id := p.find(key); id >= 0 {
		return id
	}
	w := 0
	for w < len(p.live) && p.live[w] == math.MaxUint64 {
		w++
	}
	if w == len(p.live) {
		p.live = append(p.live, 0)
	}
	id := w<<6 + bits.TrailingZeros64(^p.live[w])
	if id == len(p.keys) {
		p.keys = append(p.keys, key)
	}
	p.keys[id] = key
	p.live[w] |= 1 << (id & 63)
	p.top = max(p.top, key)
	return id
}

// Lookup returns the pool number of a live handle key.
func (p *Pool) Lookup(key int) (int, bool) {
	id := p.find(key)
	return id, id >= 0
}

// Release returns the handle's number to the pool. Releasing an unknown key
// is a no-op and returns -1.
func (p *Pool) Release(key int) int {
	id := p.find(key)
	if id >= 0 {
		p.live[id>>6] &^= 1 << (id & 63)
	}
	return id
}

// Live reports the number of live handles.
func (p *Pool) Live() int {
	n := 0
	for _, w := range p.live {
		n += bits.OnesCount64(w)
	}
	return n
}
