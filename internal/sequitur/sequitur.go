// Package sequitur implements the space-optimized Sequitur algorithm of
// paper §2.5.2: Nevill-Manning & Witten's online grammar inference with the
// run-length extension of Dorier et al., under which adjacent equal symbols
// aⁱaʲ collapse into aⁱ⁺ʲ. The algorithm maintains two classic invariants —
// digram uniqueness and rule utility — plus the run-length constraint, and
// produces context-free grammars of O(1) size for periodic inputs (versus
// O(log n) without the extension, and O(n) raw).
//
// Terminals are non-negative integers (the trace layer's event ids).
//
// The kernel is map-free: digrams live in an open-addressing table keyed by
// tagged values (index.go), each rule threads its references through the
// referencing symbols, and the symbols one Append drops are recycled by
// later ones. None of this changes an edit: the grammar is the
// one the classic pointer-and-map formulation produces, token for token.
package sequitur

import (
	"fmt"
	"math"
)

// guardVal is the tagged value of a rule's guard symbol. Real symbols carry
// 2t for terminal t and 2r+1 for a reference to rule id r, so a tagged value
// alone tells terminals, references and guards apart and two symbols hold
// the same terminal or rule exactly when their values are equal.
const guardVal = -1

// maxTerminal is the largest terminal whose tagged value 2t fits an int.
const maxTerminal = math.MaxInt >> 1

// symbol is a node in a rule's circular doubly-linked body list. A symbol is
// either a terminal (rule == nil) or a reference to a rule, and carries a
// repetition count (the run-length exponent).
type symbol struct {
	prev, next *symbol
	rule       *rule // non-nil for non-terminals and for guards (owner rule)
	// refPrev and refNext thread a non-terminal through its rule's list of
	// references. Once a symbol is off that list, refNext links it into
	// the builder's dropped or free list instead.
	refPrev, refNext *symbol
	val              int // tagged value: 2t, 2r+1, or guardVal
	count            int
}

func (s *symbol) isGuard() bool       { return s.val == guardVal }
func (s *symbol) isNonTerminal() bool { return s.val > 0 && s.val&1 == 1 }

// sameValue reports whether two symbols hold the same terminal or rule
// (ignoring counts) — the run-length merge criterion.
func sameValue(a, b *symbol) bool { return a.val != guardVal && a.val == b.val }

// rule is a grammar production. Its body is a circular list rooted at guard.
type rule struct {
	id    int
	guard *symbol
	uses  int
	refs  *symbol // head of the referencing symbols, for utility enforcement
	alive bool
}

func (r *rule) first() *symbol { return r.guard.next }
func (r *rule) last() *symbol  { return r.guard.prev }

// refVal is the tagged value of a reference to r.
func (r *rule) refVal() int { return r.id<<1 | 1 }

// Builder constructs a grammar incrementally, one terminal at a time.
type Builder struct {
	main   *rule
	index  digramIndex
	rules  int // live rules including main
	nextID int
	size   int // appended terminal instances

	// runLength enables the aⁱaʲ→aⁱ⁺ʲ constraint (constraint 3). It is a
	// construction-time option so the ablation benchmark can compare.
	runLength bool

	// pending holds rules whose utility must be re-examined once the
	// current structural edit completes; enforcing utility mid-edit could
	// splice away symbols the edit still holds pointers to.
	pending []*rule

	// dropped lists the symbols unlinked during the current Append and
	// free those of earlier Appends (both threaded through refNext). A
	// symbol is reused only after the Append that dropped it returns:
	// within an edit, the utility and inline guards recognise a dropped
	// symbol by its nil next link, so it must stay unlinked until then.
	dropped, free *symbol
}

// New returns a Builder with the run-length extension enabled.
func New() *Builder { return NewWithOptions(true) }

// NewWithOptions returns a Builder with the run-length extension on or off.
func NewWithOptions(runLength bool) *Builder {
	b := &Builder{runLength: runLength}
	b.index.slots = make([]islot, minIndexSlots)
	b.main = b.newRule()
	return b
}

// InputLen reports how many terminals have been appended.
func (b *Builder) InputLen() int { return b.size }

// newRule mints a live rule with the next id and an empty body.
func (b *Builder) newRule() *rule {
	r := &rule{id: b.nextID, alive: true}
	b.nextID++
	b.rules++
	r.guard = &symbol{val: guardVal, rule: r}
	r.guard.prev, r.guard.next = r.guard, r.guard
	return r
}

// newSymbol returns an unlinked symbol, recycled when one is free.
func (b *Builder) newSymbol(val, count int, ru *rule) *symbol {
	s := b.free
	if s == nil {
		return &symbol{val: val, count: count, rule: ru}
	}
	b.free = s.refNext
	*s = symbol{val: val, count: count, rule: ru}
	return s
}

// key returns the digram starting at a, if a and its successor are both
// real symbols.
func key(a *symbol) (dkey, bool) {
	if a == nil || a.isGuard() || a.next == nil || a.next.isGuard() {
		return dkey{}, false
	}
	return dkey{a.val, a.count, a.next.val, a.next.count}, true
}

// unindex removes the digram starting at a from the index if the index entry
// is a itself.
func (b *Builder) unindex(a *symbol) {
	if k, ok := key(a); ok {
		b.index.deleteIf(k, a)
	}
}

// link splices n after p.
func link(p, n *symbol) {
	n.prev = p
	n.next = p.next
	p.next.prev = n
	p.next = n
}

// unlink removes s from its list (digram entries must be cleared first).
func unlink(s *symbol) {
	s.prev.next = s.next
	s.next.prev = s.prev
	s.prev, s.next = nil, nil
}

// addRef registers that symbol s references rule ru.
func addRef(ru *rule, s *symbol) {
	ru.uses++
	s.refPrev = nil
	s.refNext = ru.refs
	if ru.refs != nil {
		ru.refs.refPrev = s
	}
	ru.refs = s
}

// removeRef deregisters symbol s as a reference to rule ru.
func removeRef(ru *rule, s *symbol) {
	ru.uses--
	if s.refPrev != nil {
		s.refPrev.refNext = s.refNext
	} else {
		ru.refs = s.refNext
	}
	if s.refNext != nil {
		s.refNext.refPrev = s.refPrev
	}
	s.refPrev, s.refNext = nil, nil
}

// drop queues an unlinked symbol for reuse after the current Append.
func (b *Builder) drop(s *symbol) {
	s.refNext = b.dropped
	b.dropped = s
}

// dropSymbol unlinks s and, if it is a non-terminal, releases its rule
// reference. Utility enforcement is deferred to the next flushUtility.
func (b *Builder) dropSymbol(s *symbol) {
	if s.isNonTerminal() {
		ru := s.rule
		removeRef(ru, s)
		b.pending = append(b.pending, ru)
	}
	unlink(s)
	b.drop(s)
}

// flushUtility enforces the rule-utility constraint for every rule queued by
// recent edits: a rule referenced exactly once with exponent 1 is inlined.
// (The space-optimized variant keeps rules whose single reference carries a
// run-length exponent — they still pay for themselves.) Inlining may queue
// further rules; the loop drains them all.
func (b *Builder) flushUtility() {
	for len(b.pending) > 0 {
		ru := b.pending[len(b.pending)-1]
		b.pending = b.pending[:len(b.pending)-1]
		if !ru.alive || ru == b.main || ru.uses != 1 {
			continue
		}
		ref := ru.refs
		if ref == nil || ref.count != 1 || ref.next == nil {
			continue
		}
		b.inline(ref, ru)
	}
}

// inline splices ru's body in place of its sole reference ref and deletes
// the rule.
func (b *Builder) inline(ref *symbol, ru *rule) {
	prev := ref.prev
	next := ref.next
	b.unindex(prev)
	b.unindex(ref)

	first := ru.first()
	last := ru.last()
	// Detach ref without utility recursion (the rule is going away).
	removeRef(ru, ref)
	unlink(ref)
	b.drop(ref)
	ru.alive = false
	b.rules--

	// Splice the body in. Body digram index entries stay valid: they
	// reference the same symbol objects.
	prev.next = first
	first.prev = prev
	last.next = next
	next.prev = last

	// Boundary run-length merges, then boundary digram checks. Rule
	// bodies never contain adjacent equal values, so only the two splice
	// boundaries can merge.
	left := b.mergeRun(first)
	right := next.prev
	if right != left {
		right = b.mergeRun(right)
	}
	b.check(left.prev)
	b.check(left)
	if right != left && right.next != nil {
		b.check(right)
	}
}

// mergeRun applies the run-length constraint around a: while a and a.next
// hold the same value, they collapse. It returns the surviving symbol
// (which may be a itself or a predecessor after leftward merging).
func (b *Builder) mergeRun(a *symbol) *symbol {
	if a == nil || a.isGuard() {
		return a
	}
	if !b.runLength {
		return a
	}
	// Merge leftward first so a stable survivor accumulates. The dropped
	// symbol's rule reference (if any) dies with it; the survivor keeps
	// one reference, so the rule's use count decreases by one.
	for sameValue(a.prev, a) {
		p := a.prev
		b.unindex(p.prev)
		b.unindex(p)
		b.unindex(a)
		p.count += a.count
		b.dropSymbol(a)
		a = p
	}
	for sameValue(a, a.next) {
		n := a.next
		b.unindex(a.prev)
		b.unindex(a)
		b.unindex(n)
		a.count += n.count
		b.dropSymbol(n)
	}
	return a
}

// check enforces digram uniqueness for the digram starting at a. It returns
// true if a replacement took place.
func (b *Builder) check(a *symbol) bool {
	k, ok := key(a)
	if !ok {
		return false
	}
	i := b.index.lookup(k)
	m := b.index.slots[i].sym
	if m == nil {
		b.index.setAt(i, k, a)
		return false
	}
	if m == a {
		return false
	}
	if m.next == a || a.next == m {
		return false // overlapping occurrence (only possible without RLE)
	}
	b.match(a, m)
	return true
}

// match resolves a duplicate digram: reuse an existing whole-body rule or
// mint a new one, substituting both occurrences.
func (b *Builder) match(newer, older *symbol) {
	var ru *rule
	if older.prev.isGuard() && older.next.next.isGuard() {
		// The older occurrence is exactly a rule's body: reuse it.
		ru = older.prev.rule
		b.substitute(newer, ru)
	} else {
		ru = b.newRule()
		// Body: copies of the digram's two symbols.
		c1 := b.newSymbol(older.val, older.count, older.rule)
		c2 := b.newSymbol(older.next.val, older.next.count, older.next.rule)
		link(ru.guard, c1)
		link(c1, c2)
		if c1.rule != nil {
			addRef(c1.rule, c1)
		}
		if c2.rule != nil {
			addRef(c2.rule, c2)
		}
		// The canonical occurrence of this digram is now the rule body.
		if k, ok := key(c1); ok {
			b.index.setAt(b.index.lookup(k), k, c1)
		}
		b.substitute(older, ru)
		b.substitute(newer, ru)
	}
}

// substitute replaces the digram starting at a with a reference to ru,
// applying run-length merging and boundary digram checks.
func (b *Builder) substitute(a *symbol, ru *rule) {
	prev := a.prev
	second := a.next
	b.unindex(prev)
	b.unindex(a)
	b.unindex(second)
	b.dropSymbol(second)
	b.dropSymbol(a)

	n := b.newSymbol(ru.refVal(), 1, ru)
	link(prev, n)
	addRef(ru, n)

	n = b.mergeRun(n)
	b.check(n.prev)
	b.check(n)
	b.flushUtility()
}

// Append adds one terminal to the input sequence.
func (b *Builder) Append(token int) {
	if token < 0 {
		panic(fmt.Sprintf("sequitur: negative terminal %d", token))
	}
	if token > maxTerminal {
		panic(fmt.Sprintf("sequitur: terminal %d out of range", token))
	}
	b.size++
	v := token << 1
	last := b.main.last()
	if b.runLength && last.val == v {
		b.unindex(last.prev)
		last.count++
		b.check(last.prev)
	} else {
		n := b.newSymbol(v, 1, nil)
		link(last, n)
		b.check(n.prev)
	}
	b.flushUtility()
	b.recycle()
}

// recycle ends an Append: the symbols it dropped become reusable.
func (b *Builder) recycle() {
	for s := b.dropped; s != nil; {
		next := s.refNext
		s.refNext = b.free
		b.free = s
		s = next
	}
	b.dropped = nil
}

// AppendAll adds every token of the slice in order.
func (b *Builder) AppendAll(tokens []int) {
	for _, t := range tokens {
		b.Append(t)
	}
}

// NumRules reports the current number of rules including the main rule.
func (b *Builder) NumRules() int { return b.rules }
