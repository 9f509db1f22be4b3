package sequitur

// dkey identifies a digram: the tagged values of two adjacent symbols and
// their exponents. Four ints, no padding, so equality is a plain compare.
type dkey struct {
	a, aCnt, b, bCnt int
}

func (k dkey) hash() uint64 {
	h := (uint64(k.a)<<32 ^ uint64(k.b)) * 0x9E3779B97F4A7C15
	h ^= (uint64(k.aCnt)<<32 ^ uint64(k.bCnt)) * 0xC2B2AE3D27D4EB4F
	return h ^ h>>32
}

// islot is one digram-index slot; sym == nil marks it empty.
type islot struct {
	key dkey
	sym *symbol
}

// digramIndex maps each indexed digram to the symbol that starts it. It is
// an open-addressing table with linear probing whose deletions shift the
// rest of the probe run back, so it never holds tombstones and a lookup
// stops at the first empty slot. The load factor stays at most 1/2.
type digramIndex struct {
	slots []islot
	n     int
}

// minIndexSlots is a new index's size, a power of two like every size.
const minIndexSlots = 16

// lookup returns the slot holding k, or the empty slot where k belongs.
func (t *digramIndex) lookup(k dkey) int {
	mask := len(t.slots) - 1
	i := int(k.hash()) & mask
	for {
		s := &t.slots[i]
		if s.sym == nil || s.key == k {
			return i
		}
		i = (i + 1) & mask
	}
}

// setAt stores k → s in slot i, which lookup(k) returned.
func (t *digramIndex) setAt(i int, k dkey, s *symbol) {
	if t.slots[i].sym == nil {
		t.n++
	}
	t.slots[i] = islot{k, s}
	if 2*t.n > len(t.slots) {
		t.grow()
	}
}

// deleteIf removes the entry for k if it maps to s.
func (t *digramIndex) deleteIf(k dkey, s *symbol) {
	i := t.lookup(k)
	if t.slots[i].sym != s {
		return
	}
	t.n--
	// Backward-shift deletion: walk the probe run after the hole and move
	// back every entry whose home slot does not lie between the hole and
	// its current position, so no lookup ever stops short of it.
	mask := len(t.slots) - 1
	for j := i; ; {
		t.slots[i] = islot{}
		for {
			j = (j + 1) & mask
			if t.slots[j].sym == nil {
				return
			}
			home := int(t.slots[j].key.hash()) & mask
			if (j-home)&mask >= (j-i)&mask {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// grow doubles the table and reinserts every entry.
func (t *digramIndex) grow() {
	old := t.slots
	t.slots = make([]islot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.sym == nil {
			continue
		}
		i := int(s.key.hash()) & mask
		for t.slots[i].sym != nil {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// get returns the symbol indexed under k, or nil.
func (t *digramIndex) get(k dkey) *symbol {
	return t.slots[t.lookup(k)].sym
}
