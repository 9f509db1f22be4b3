package trace

import (
	"container/heap"
	"math/rand"
	"testing"
)

// intHeap is a min-heap of ints for the reference pool's free numbers.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refPool is the free-number pool as first written, a min-heap of free
// numbers beside a map of live keys: the reference model Pool must agree
// with call for call.
type refPool struct {
	free intHeap
	next int
	live map[int]int // external handle key -> pool number
}

func newRefPool() *refPool { return &refPool{live: make(map[int]int)} }

func (p *refPool) Acquire(key int) int {
	if id, ok := p.live[key]; ok {
		return id
	}
	var id int
	if len(p.free) > 0 {
		id = heap.Pop(&p.free).(int)
	} else {
		id = p.next
		p.next++
	}
	p.live[key] = id
	return id
}

func (p *refPool) Lookup(key int) (int, bool) {
	id, ok := p.live[key]
	return id, ok
}

func (p *refPool) Release(key int) int {
	id, ok := p.live[key]
	if !ok {
		return -1
	}
	delete(p.live, key)
	heap.Push(&p.free, id)
	return id
}

func (p *refPool) Live() int { return len(p.live) }

// poolOracleSeeds is the number of seeded random sequences the oracle
// test compares.
const poolOracleSeeds = 400

// TestPoolMatchesReference drives Pool and refPool through the same
// seeded random sequences of Acquire, Release and Lookup and requires
// every result, and Live after every step, to agree. Each sequence mixes
// the runtime's pattern (fresh increasing keys, releases in acquisition
// order) with what the fast paths must not break: re-acquiring a live
// key, releasing an unknown or already released key, looking up a stale
// one, and keys that go down or negative.
func TestPoolMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= poolOracleSeeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, ref := NewPool(), newRefPool()
		var acquired []int // every key acquired so far, in order
		next, oldest := 0, 0
		steps := 50 + rng.Intn(400)
		for step := 0; step < steps; step++ {
			var key int
			switch k := rng.Intn(10); {
			case k < 4: // the runtime's next id
				key = next
				next += 1 + rng.Intn(3)
			case k < 6 && len(acquired) > 0: // oldest first, as the runtime releases
				key = acquired[oldest%len(acquired)]
				oldest++
			case k < 8 && len(acquired) > 0: // any earlier key, live or stale
				key = acquired[rng.Intn(len(acquired))]
			case k < 9: // non-monotone, possibly negative, possibly never seen
				key = rng.Intn(2*next+4) - next/2 - 2
			default: // above every key so far
				key = next + rng.Intn(8)
			}
			var got, want int
			var gotOK, wantOK bool
			op := rng.Intn(3)
			switch op {
			case 0:
				got, want = p.Acquire(key), ref.Acquire(key)
				acquired = append(acquired, key)
			case 1:
				got, want = p.Release(key), ref.Release(key)
			default:
				got, gotOK = p.Lookup(key)
				want, wantOK = ref.Lookup(key)
				if gotOK != wantOK {
					t.Fatalf("seed %d step %d: Lookup(%d) ok=%v, reference ok=%v", seed, step, key, gotOK, wantOK)
				}
				if !wantOK {
					got, want = 0, 0 // the number is unspecified on a miss
				}
			}
			if got != want {
				t.Fatalf("seed %d step %d: op %d on key %d = %d, reference %d", seed, step, op, key, got, want)
			}
			if p.Live() != ref.Live() {
				t.Fatalf("seed %d step %d: Live = %d, reference %d", seed, step, p.Live(), ref.Live())
			}
		}
	}
}

// TestPoolReverseRelease holds 4096 live keys, past one bitset word and
// far past the runtime's high-water, and releases them newest first: the
// order the scan from the last hit serves worst.
func TestPoolReverseRelease(t *testing.T) {
	const n = 4096
	p, ref := NewPool(), newRefPool()
	for k := 0; k < n; k++ {
		if got, want := p.Acquire(3*k+7), ref.Acquire(3*k+7); got != want || got != k {
			t.Fatalf("Acquire(%d) = %d, reference %d, want %d", 3*k+7, got, want, k)
		}
	}
	for k := n - 1; k >= 0; k-- {
		if got, want := p.Release(3*k+7), ref.Release(3*k+7); got != want {
			t.Fatalf("Release(%d) = %d, reference %d", 3*k+7, got, want)
		}
		if p.Live() != k {
			t.Fatalf("Live = %d after releasing key %d, want %d", p.Live(), 3*k+7, k)
		}
	}
	for k := 0; k < n; k++ {
		if got, want := p.Acquire(-k), ref.Acquire(-k); got != want {
			t.Fatalf("re-Acquire(%d) = %d, reference %d", -k, got, want)
		}
	}
}

// TestPoolAllocFree pins the recorder's steady state: once a pool has
// grown to its high-water, acquiring fresh keys and releasing them in
// order allocates nothing.
func TestPoolAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	p := NewPool()
	key := 0
	cycle := func() {
		for i := 0; i < 8; i++ {
			p.Acquire(key + i)
		}
		for i := 0; i < 8; i++ {
			p.Release(key + i)
		}
		key += 8
	}
	cycle() // grow to the high-water
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("Pool Acquire/Release cycle allocates %.1f times, want 0", allocs)
	}
}
