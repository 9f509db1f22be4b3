// Computation-proxy search memoization (§2.4 at scale): loop-heavy traces
// resolve the same cluster target vector thousands of times, and concurrent
// server jobs on the same platform resolve identical vectors across jobs.
// The QP solve is by far the dominant cost per cluster, so CachedSearch
// interns solutions behind a concurrency-safe LRU keyed by (B matrix,
// quantized target).
//
// Purity is what makes the cache safe to share: the target is quantized to
// 9 significant digits and the QP is solved *on the quantized target*, so a
// cached combination is a pure function of its key — every caller that maps
// to the key gets the byte-identical combination a cold solve would have
// produced, regardless of arrival order or concurrency. Quantizing to 9
// digits moves each target component by ≤ 5e-10 relative, far below both
// the counter model's noise floor and the integer rounding of the result.
package blocks

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"siesta/internal/perfmodel"
	"siesta/internal/qp"
)

// Memo is a bounded, concurrency-safe cache of Search results. The zero
// value is not usable; construct with NewMemo.
type Memo struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // front = most recent; values are *memoEntry
	byKey  map[memoKey]*list.Element
	hits   int64
	misses int64
}

type memoKey struct {
	bm     [32]byte // sha256 over the B matrix dims and data
	target [perfmodel.NumMetrics]uint64
}

type memoEntry struct {
	key   memoKey
	combo Combination
	err   error
	// state is guarded by Memo.mu. An entry a miss inserts starts
	// reserved, turns solving when a lookup of its key starts the solve,
	// and solved when combo and err hold the result; done closes then.
	// Imported entries are born solved, with no done channel.
	state entryState
	done  chan struct{}
}

type entryState uint8

const (
	entrySolved entryState = iota
	entryReserved
	entrySolving
)

// DefaultMemoCap is the size of the process-global memo. An entry is ~200
// bytes, so the default retains every distinct cluster of several hundred
// concurrent syntheses for well under a megabyte.
const DefaultMemoCap = 4096

// DefaultMemo is the process-global search memo used when callers do not
// supply their own. Platform identity is captured through the B-matrix hash
// in the key, so one memo safely serves jobs on different platforms.
var DefaultMemo = NewMemo(DefaultMemoCap)

// NewMemo returns a memo retaining up to cap solved searches (cap ≤ 0
// selects DefaultMemoCap).
func NewMemo(cap int) *Memo {
	if cap <= 0 {
		cap = DefaultMemoCap
	}
	return &Memo{cap: cap, lru: list.New(), byKey: map[memoKey]*list.Element{}}
}

// Stats reports cache hits and misses so far.
func (m *Memo) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Len reports the number of cached entries.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// hashB fingerprints the B matrix (dims + exact float bits); two platforms
// or two noise draws produce different hashes and therefore disjoint cache
// entries.
func hashB(bm *qp.Matrix) [32]byte {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(bm.Rows)<<32|uint64(uint32(bm.Cols)))
	h.Write(buf[:])
	for _, v := range bm.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// quantize rounds v to 9 significant decimal digits. Quantization happens
// before the solve, not just in the key, so the cached result is exact for
// the key (see the package comment).
func quantize(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	digits := 9 - math.Ceil(math.Log10(math.Abs(v)))
	if digits > 300 || digits < -300 {
		// The scale factor would over/underflow; magnitudes this extreme
		// never arise from real counters, so key on the raw bits.
		return v
	}
	scale := math.Pow(10, digits)
	q := math.Round(v*scale) / scale
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return v
	}
	return q
}

// CachedSearch is Search behind the memo: the target is quantized, looked
// up, and solved on a miss. A nil memo uses DefaultMemo. Errors are cached
// too — a target the QP cannot fit will not fit on retry either.
func CachedSearch(m *Memo, bm *qp.Matrix, target perfmodel.Counters) (Combination, error) {
	return m.Lookup(bm, target).Result()
}

// Lookup is one memo lookup, counted as a hit or a miss when it is made.
// A miss inserts the key's entry at once, unsolved, so a later lookup of
// the key counts as a hit and shares the one solve, and the memo's recency
// order is the order the lookups were made in, not the order their solves
// finish. That is what lets a caller make a batch of lookups in order and
// solve them concurrently: the counts and Export's snapshot are those of
// the serial loop.
type Lookup struct {
	m  *Memo
	el *list.Element // the entry this lookup's miss inserted; nil on a hit
	e  *memoEntry
	bm *qp.Matrix
	qt perfmodel.Counters // the quantized target the entry is solved on
}

// Lookup quantizes target and looks it up. A nil memo uses DefaultMemo.
// Every Lookup must end in Result, or in Release when its result is no
// longer wanted.
func (m *Memo) Lookup(bm *qp.Matrix, target perfmodel.Counters) Lookup {
	if m == nil {
		m = DefaultMemo
	}
	l := Lookup{m: m, bm: bm}
	key := memoKey{bm: hashB(bm)}
	for i, v := range target {
		l.qt[i] = quantize(v)
		key.target[i] = math.Float64bits(l.qt[i])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		m.hits++
		m.lru.MoveToFront(el)
		l.e = el.Value.(*memoEntry)
		return l
	}
	m.misses++
	l.e = &memoEntry{key: key, state: entryReserved, done: make(chan struct{})}
	l.el = m.lru.PushFront(l.e)
	m.byKey[key] = l.el
	m.evict()
	return l
}

// Result returns the looked-up combination. A solved entry answers at
// once and an entry another goroutine is solving is waited for; an
// unsolved one is solved here, by whichever lookup of its key asks first.
// The solve runs outside the lock, on the quantized target, so the entry
// is the same whoever solves it.
func (l Lookup) Result() (Combination, error) {
	m, e := l.m, l.e
	m.mu.Lock()
	switch e.state {
	case entrySolved:
		m.mu.Unlock()
		return e.combo, e.err
	case entrySolving:
		m.mu.Unlock()
		<-e.done
		return e.combo, e.err
	}
	e.state = entrySolving
	m.mu.Unlock()
	combo, err := Search(l.bm, l.qt)
	m.mu.Lock()
	e.combo, e.err, e.state = combo, err, entrySolved
	m.mu.Unlock()
	close(e.done)
	return combo, err
}

// Release gives up a lookup whose result is no longer wanted. An entry its
// miss inserted that no lookup has started solving leaves the memo, so no
// later lookup counts a hit on a solve nobody makes; a hit, or an entry
// already solving or solved, is left as it is.
func (l Lookup) Release() {
	if l.el == nil {
		return
	}
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if l.e.state == entryReserved && m.byKey[l.e.key] == l.el {
		m.lru.Remove(l.el)
		delete(m.byKey, l.e.key)
	}
}

// evict drops least recently used entries down to the cap. An evicted
// entry still being solved completes for the lookups holding it.
func (m *Memo) evict() {
	for m.lru.Len() > m.cap {
		oldest := m.lru.Back()
		m.lru.Remove(oldest)
		delete(m.byKey, oldest.Value.(*memoEntry).key)
	}
}
