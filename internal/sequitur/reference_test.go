package sequitur

import "fmt"

// This file freezes the original map-based Builder as a test-only
// reference. The production Builder keeps every structural edit of this
// implementation — digram uniqueness, rule utility, the run-length merge
// and their order — and changes only the data structures behind them, so
// the differential tests (differential_test.go) require byte-identical
// grammars from both. Do not optimise or otherwise edit this copy: its
// value is that it is the old code.

// symbol is a node in a rule's circular doubly-linked body list. A symbol is
// either a terminal (rule == nil) or a reference to a rule, and carries a
// repetition count (the run-length exponent).
type refSymbol struct {
	prev, next *refSymbol
	rule       *refRule // non-nil for non-terminals and for guards (owner rule)
	term       int
	count      int
	guard      bool
}

func (s *refSymbol) isNonTerminal() bool { return !s.guard && s.rule != nil }

// sameValue reports whether two symbols hold the same terminal or rule
// (ignoring counts) — the run-length merge criterion.
func refSameValue(a, b *refSymbol) bool {
	if a.guard || b.guard {
		return false
	}
	if (a.rule == nil) != (b.rule == nil) {
		return false
	}
	if a.rule != nil {
		return a.rule == b.rule
	}
	return a.term == b.term
}

// rule is a grammar production. Its body is a circular list rooted at guard.
type refRule struct {
	id    int
	guard *refSymbol
	uses  int
	refs  map[*refSymbol]struct{} // referencing symbols, for utility enforcement
}

func newRefRule(id int) *refRule {
	r := &refRule{id: id, refs: map[*refSymbol]struct{}{}}
	g := &refSymbol{guard: true, rule: r}
	g.prev, g.next = g, g
	r.guard = g
	return r
}

func (r *refRule) first() *refSymbol { return r.guard.next }
func (r *refRule) last() *refSymbol  { return r.guard.prev }
func (r *refRule) empty() bool       { return r.guard.next == r.guard }

// refDkey identifies a digram: two adjacent symbols including their exponents.
type refDkey struct {
	aRule bool
	aVal  int
	aCnt  int
	bRule bool
	bVal  int
	bCnt  int
}

func refSymVal(s *refSymbol) (bool, int) {
	if s.rule != nil && !s.guard {
		return true, s.rule.id
	}
	return false, s.term
}

// Builder constructs a grammar incrementally, one terminal at a time.
type refBuilder struct {
	main    *refRule
	digrams map[refDkey]*refSymbol
	rules   map[*refRule]struct{}
	nextID  int
	size    int // appended terminal instances

	// runLength enables the aⁱaʲ→aⁱ⁺ʲ constraint (constraint 3). It is a
	// construction-time option so the ablation benchmark can compare.
	runLength bool

	// pending holds rules whose utility must be re-examined once the
	// current structural edit completes; enforcing utility mid-edit could
	// splice away symbols the edit still holds pointers to.
	pending []*refRule
}

// New returns a Builder with the run-length extension enabled.
func newReference() *refBuilder { return newReferenceWithOptions(true) }

// NewWithOptions returns a Builder with the run-length extension on or off.
func newReferenceWithOptions(runLength bool) *refBuilder {
	b := &refBuilder{
		digrams:   map[refDkey]*refSymbol{},
		rules:     map[*refRule]struct{}{},
		runLength: runLength,
	}
	b.main = newRefRule(0)
	b.nextID = 1
	b.rules[b.main] = struct{}{}
	return b
}

// InputLen reports how many terminals have been appended.
func (b *refBuilder) InputLen() int { return b.size }

func (b *refBuilder) key(a *refSymbol) (refDkey, bool) {
	if a == nil || a.guard || a.next == nil || a.next.guard {
		return refDkey{}, false
	}
	ar, av := refSymVal(a)
	br, bv := refSymVal(a.next)
	return refDkey{ar, av, a.count, br, bv, a.next.count}, true
}

// unindex removes the digram starting at a from the index if the index entry
// is a itself.
func (b *refBuilder) unindex(a *refSymbol) {
	if k, ok := b.key(a); ok {
		if b.digrams[k] == a {
			delete(b.digrams, k)
		}
	}
}

// link splices n after p.
func refLink(p, n *refSymbol) {
	n.prev = p
	n.next = p.next
	p.next.prev = n
	p.next = n
}

// unlink removes s from its list (digram entries must be cleared first).
func refUnlink(s *refSymbol) {
	s.prev.next = s.next
	s.next.prev = s.prev
	s.prev, s.next = nil, nil
}

// addRef registers that symbol s references rule ru.
func (b *refBuilder) addRef(ru *refRule, s *refSymbol) {
	ru.uses++
	ru.refs[s] = struct{}{}
}

// dropSymbol unlinks s and, if it is a non-terminal, releases its rule
// reference. Utility enforcement is deferred to the next flushUtility.
func (b *refBuilder) dropSymbol(s *refSymbol) {
	if s.isNonTerminal() {
		ru := s.rule
		ru.uses--
		delete(ru.refs, s)
		b.pending = append(b.pending, ru)
	}
	refUnlink(s)
}

// flushUtility enforces the rule-utility constraint for every rule queued by
// recent edits: a rule referenced exactly once with exponent 1 is inlined.
// (The space-optimized variant keeps rules whose single reference carries a
// run-length exponent — they still pay for themselves.) Inlining may queue
// further rules; the loop drains them all.
func (b *refBuilder) flushUtility() {
	for len(b.pending) > 0 {
		ru := b.pending[len(b.pending)-1]
		b.pending = b.pending[:len(b.pending)-1]
		if _, alive := b.rules[ru]; !alive || ru == b.main || ru.uses != 1 {
			continue
		}
		var ref *refSymbol
		for s := range ru.refs {
			ref = s
		}
		if ref == nil || ref.count != 1 || ref.next == nil {
			continue
		}
		b.inline(ref, ru)
	}
}

// inline splices ru's body in place of its sole reference ref and deletes
// the rule.
func (b *refBuilder) inline(ref *refSymbol, ru *refRule) {
	prev := ref.prev
	next := ref.next
	b.unindex(prev)
	b.unindex(ref)

	first := ru.first()
	last := ru.last()
	// Detach ref without utility recursion (the rule is going away).
	ru.uses--
	delete(ru.refs, ref)
	refUnlink(ref)
	delete(b.rules, ru)

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
func (b *refBuilder) mergeRun(a *refSymbol) *refSymbol {
	if a == nil || a.guard {
		return a
	}
	if !b.runLength {
		return a
	}
	// Merge leftward first so a stable survivor accumulates. The dropped
	// symbol's rule reference (if any) dies with it; the survivor keeps
	// one reference, so the rule's use count decreases by one.
	for !a.prev.guard && refSameValue(a.prev, a) {
		p := a.prev
		b.unindex(p.prev)
		b.unindex(p)
		b.unindex(a)
		p.count += a.count
		b.dropSymbol(a)
		a = p
	}
	for !a.next.guard && refSameValue(a, a.next) {
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
func (b *refBuilder) check(a *refSymbol) bool {
	k, ok := b.key(a)
	if !ok {
		return false
	}
	m, exists := b.digrams[k]
	if !exists {
		b.digrams[k] = a
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
func (b *refBuilder) match(newer, older *refSymbol) {
	var ru *refRule
	if older.prev.guard && older.next.next.guard {
		// The older occurrence is exactly a rule's body: reuse it.
		ru = older.prev.rule
		b.substitute(newer, ru)
	} else {
		ru = newRefRule(b.nextID)
		b.nextID++
		b.rules[ru] = struct{}{}
		// Body: copies of the digram's two symbols.
		c1 := &refSymbol{rule: nil, term: older.term, count: older.count}
		if older.isNonTerminal() {
			c1.rule = older.rule
		}
		c2 := &refSymbol{rule: nil, term: older.next.term, count: older.next.count}
		if older.next.isNonTerminal() {
			c2.rule = older.next.rule
		}
		refLink(ru.guard, c1)
		refLink(c1, c2)
		if c1.rule != nil {
			b.addRef(c1.rule, c1)
		}
		if c2.rule != nil {
			b.addRef(c2.rule, c2)
		}
		// The canonical occurrence of this digram is now the rule body.
		if k, ok := b.key(c1); ok {
			b.digrams[k] = c1
		}
		b.substitute(older, ru)
		b.substitute(newer, ru)
	}
}

// substitute replaces the digram starting at a with a reference to ru,
// applying run-length merging and boundary digram checks.
func (b *refBuilder) substitute(a *refSymbol, ru *refRule) {
	prev := a.prev
	second := a.next
	b.unindex(prev)
	b.unindex(a)
	b.unindex(second)
	b.dropSymbol(second)
	b.dropSymbol(a)

	n := &refSymbol{rule: ru, count: 1}
	refLink(prev, n)
	b.addRef(ru, n)

	n = b.mergeRun(n)
	b.check(n.prev)
	b.check(n)
	b.flushUtility()
}

// Append adds one terminal to the input sequence.
func (b *refBuilder) Append(token int) {
	if token < 0 {
		panic(fmt.Sprintf("sequitur: negative terminal %d", token))
	}
	b.size++
	last := b.main.last()
	if b.runLength && !last.guard && last.rule == nil && last.term == token {
		b.unindex(last.prev)
		last.count++
		b.check(last.prev)
		b.flushUtility()
		return
	}
	n := &refSymbol{term: token, count: 1}
	refLink(last, n)
	b.check(n.prev)
	b.flushUtility()
}

// AppendAll adds every token of the slice in order.
func (b *refBuilder) AppendAll(tokens []int) {
	for _, t := range tokens {
		b.Append(t)
	}
}

// NumRules reports the current number of rules including the main rule.
func (b *refBuilder) NumRules() int { return len(b.rules) }

// Grammar exports the builder's current grammar. Rules are numbered in
// depth-first first-reference order from the main rule, which makes the
// numbering deterministic for identical inputs.
func (b *refBuilder) Grammar() *Grammar {
	order := map[*refRule]int{b.main: 0}
	list := []*refRule{b.main}
	var walk func(r *refRule)
	walk = func(r *refRule) {
		for s := r.first(); !s.guard; s = s.next {
			if s.rule != nil {
				if _, seen := order[s.rule]; !seen {
					order[s.rule] = len(list)
					list = append(list, s.rule)
					walk(s.rule)
				}
			}
		}
	}
	walk(b.main)

	g := &Grammar{Rules: make([][]Sym, len(list))}
	for i, r := range list {
		var body []Sym
		for s := r.first(); !s.guard; s = s.next {
			sym := Sym{Count: s.count}
			if s.rule != nil {
				sym.IsRule = true
				sym.Ref = order[s.rule]
			} else {
				sym.Ref = s.term
			}
			body = append(body, sym)
		}
		g.Rules[i] = body
	}
	return g
}
