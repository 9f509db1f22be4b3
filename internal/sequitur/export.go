package sequitur

import "fmt"

// Sym is one symbol of an exported grammar: either a terminal value or a
// rule reference, repeated Count times.
type Sym struct {
	Ref    int // terminal value, or rule index when IsRule
	IsRule bool
	Count  int
}

// Grammar is the exported, immutable form of an inferred grammar. Rules[0]
// is the main rule; references index into Rules.
type Grammar struct {
	Rules [][]Sym
}

// Grammar exports the builder's current grammar. Rules are numbered in
// depth-first first-reference order from the main rule, which makes the
// numbering deterministic for identical inputs. Export only reads the rule
// lists, so a mid-stream export does not perturb inference: appending
// afterwards continues exactly as if it had never been taken, which the
// streaming ingest path (internal/merge's RankIngestor) relies on.
func (b *Builder) Grammar() *Grammar {
	order := map[*rule]int{b.main: 0}
	list := []*rule{b.main}
	var walk func(r *rule)
	walk = func(r *rule) {
		for s := r.first(); !s.isGuard(); s = s.next {
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
		for s := r.first(); !s.isGuard(); s = s.next {
			sym := Sym{Count: s.count}
			if s.rule != nil {
				sym.IsRule = true
				sym.Ref = order[s.rule]
			} else {
				sym.Ref = s.val >> 1
			}
			body = append(body, sym)
		}
		g.Rules[i] = body
	}
	return g
}

// Expand reconstructs the original terminal sequence.
func (g *Grammar) Expand() []int {
	var out []int
	var expand func(rule int)
	expand = func(rule int) {
		for _, s := range g.Rules[rule] {
			for c := 0; c < s.Count; c++ {
				if s.IsRule {
					expand(s.Ref)
				} else {
					out = append(out, s.Ref)
				}
			}
		}
	}
	expand(0)
	return out
}

// ExpandedLen computes the expansion length without materializing it.
func (g *Grammar) ExpandedLen() int {
	memo := make([]int, len(g.Rules))
	for i := range memo {
		memo[i] = -1
	}
	var size func(rule int) int
	size = func(rule int) int {
		if memo[rule] >= 0 {
			return memo[rule]
		}
		memo[rule] = 0 // break cycles defensively; valid grammars are acyclic
		n := 0
		for _, s := range g.Rules[rule] {
			if s.IsRule {
				n += s.Count * size(s.Ref)
			} else {
				n += s.Count
			}
		}
		memo[rule] = n
		return n
	}
	return size(0)
}

// NumSymbols reports the total symbol count across all rules — the grammar's
// size in the paper's sense.
func (g *Grammar) NumSymbols() int {
	n := 0
	for _, r := range g.Rules {
		n += len(r)
	}
	return n
}

// Depths computes each rule's depth: terminal-only rules have depth 1, and a
// rule's depth is 1 + max depth of referenced rules. Depth drives the
// non-terminal merge order of paper §2.6.2.
func (g *Grammar) Depths() []int {
	d := make([]int, len(g.Rules))
	var depth func(rule int) int
	depth = func(rule int) int {
		if d[rule] != 0 {
			return d[rule]
		}
		d[rule] = 1 // provisional, breaks accidental cycles
		best := 1
		for _, s := range g.Rules[rule] {
			if s.IsRule {
				if v := depth(s.Ref) + 1; v > best {
					best = v
				}
			}
		}
		d[rule] = best
		return best
	}
	depth(0)
	for i := range g.Rules {
		depth(i)
	}
	return d
}

// String renders the grammar in a readable S → aⁱ B form for debugging and
// golden tests.
func (g *Grammar) String() string {
	out := ""
	for i, r := range g.Rules {
		name := "S"
		if i > 0 {
			name = fmt.Sprintf("R%d", i)
		}
		out += name + " →"
		for _, s := range r {
			if s.IsRule {
				out += fmt.Sprintf(" R%d", s.Ref)
			} else {
				out += fmt.Sprintf(" %d", s.Ref)
			}
			if s.Count != 1 {
				out += fmt.Sprintf("^%d", s.Count)
			}
		}
		out += "\n"
	}
	return out
}

// verify checks the builder's internal invariants; tests call it after every
// kind of mutation. It returns an error describing the first violation.
// Beyond the grammar's own invariants it checks what symbol reuse relies
// on: every digram-index entry names a live symbol under that symbol's
// current key, and the rule counter and reference lists match the rules
// reachable from main.
func (b *Builder) verify() error {
	// Live rules are exactly those reachable from main; walk them.
	rules := []*rule{b.main}
	reached := map[*rule]bool{b.main: true}
	uses := map[*rule]int{}
	for i := 0; i < len(rules); i++ {
		r := rules[i]
		if !r.alive {
			return fmt.Errorf("rule %d: reachable but deleted", r.id)
		}
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.rule == nil {
				continue
			}
			uses[s.rule]++
			if !reached[s.rule] {
				reached[s.rule] = true
				rules = append(rules, s.rule)
			}
		}
	}
	if b.rules != len(rules) {
		return fmt.Errorf("rule counter %d, but %d rules reachable from main", b.rules, len(rules))
	}
	// 1. Link integrity and no adjacent equal values (run-length) per rule.
	for _, r := range rules {
		prev := r.guard
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.prev != prev {
				return fmt.Errorf("rule %d: broken back link", r.id)
			}
			if s.count < 1 {
				return fmt.Errorf("rule %d: non-positive count %d", r.id, s.count)
			}
			if s.rule != nil && s.val != s.rule.refVal() {
				return fmt.Errorf("rule %d: reference tagged %d, want %d", r.id, s.val, s.rule.refVal())
			}
			if b.runLength && sameValue(prev, s) {
				return fmt.Errorf("rule %d: unmerged run", r.id)
			}
			prev = s
		}
	}
	// 2. Digram uniqueness (over live digrams) and index consistency. With
	// run-length on, the index must hold every live digram under its own
	// symbol; counting the live digrams it names then checks that it names
	// nothing else — no dropped or recycled symbol.
	seen := map[dkey]*symbol{}
	named := 0
	for _, r := range rules {
		for s := r.first(); !s.isGuard(); s = s.next {
			k, ok := key(s)
			if !ok {
				continue
			}
			if other, dup := seen[k]; dup {
				// Overlap exemption does not apply across entries;
				// equal-valued neighbours were excluded above.
				return fmt.Errorf("duplicate digram %v at %p and %p", k, s, other)
			}
			seen[k] = s
			idx := b.index.get(k)
			if idx == s {
				named++
			} else if b.runLength || idx != nil {
				return fmt.Errorf("digram %v at %p: index names %p", k, s, idx)
			}
		}
	}
	n := 0
	for _, sl := range b.index.slots {
		if sl.sym != nil {
			n++
		}
	}
	if n != b.index.n || named != n {
		return fmt.Errorf("digram index holds %d entries (counted %d), %d name live digrams", n, b.index.n, named)
	}
	// 3. Rule utility, use counts and reference lists.
	for _, r := range rules[1:] {
		if uses[r] != r.uses {
			return fmt.Errorf("rule %d: recorded uses %d, actual %d", r.id, r.uses, uses[r])
		}
		listed := 0
		var prev *symbol
		for s := r.refs; s != nil && listed <= r.uses; s = s.refNext {
			if s.rule != r || s.next == nil || s.refPrev != prev {
				return fmt.Errorf("rule %d: reference list holds a foreign or dropped symbol", r.id)
			}
			listed++
			prev = s
		}
		if listed != r.uses {
			return fmt.Errorf("rule %d: %d references listed, %d recorded", r.id, listed, r.uses)
		}
		if r.uses == 1 && r.refs.count == 1 {
			return fmt.Errorf("rule %d: utility violation (single use, count 1)", r.id)
		}
	}
	return nil
}
