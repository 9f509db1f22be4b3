package merge

import "fmt"

// Cursor walks one rank's expansion of a Program, terminal by terminal: a
// stack of (rule, position, repetition) frames over the main body, honoring
// each main symbol's rank set and every run-length count. It is the one
// expansion walker; ExpandRank, proxy replay, the check machine and its
// diagnostic paths all read the grammar through it.
//
// Building a cursor validates every rule (no dangling references, no
// cycles) and folds each rule's expanded length once, so SeekEvent descends
// in O(grammar depth) and a walk allocates nothing per event. A cursor is
// not safe for concurrent use; Clone gives another goroutine its own.
type Cursor struct {
	p       *Program
	ruleLen []int64 // expanded length of one pass over each rule; shared by clones
	depth   int     // frames a walk can stack: the deepest rule nesting plus main
	rank    int
	body    []MainSym // the rank's main body, for paths
	main    []Sym     // its symbols that the rank executes, in body order
	stack   []frame   // stack[0] walks main; the top is innermost
	term    int
}

// frame is one level of the walk: the current symbol of a body and how many
// of its repetitions are complete (a terminal's count includes the one the
// cursor stands on). Next moves past a terminal's last repetition as it
// returns it, so a cursor on a terminal has either done > 0 at pos, or
// done == 0 with the terminal at pos-1.
type frame struct {
	syms           []Sym
	ref, pos, done int // ref is -1 for the main body
}

// NewCursor validates the program's rules and prepares a cursor over them.
// Call Reset before walking.
func NewCursor(p *Program) (*Cursor, error) {
	c := &Cursor{p: p, ruleLen: make([]int64, len(p.Rules))}
	state := make([]int8, len(p.Rules)) // 0 unvisited, 1 in progress, 2 done
	depth := make([]int, len(p.Rules))  // frames a walk into the rule stacks
	var visit func(ref int) error
	visit = func(ref int) error {
		switch {
		case ref < 0 || ref >= len(p.Rules):
			return fmt.Errorf("merge: dangling rule ref %d", ref)
		case state[ref] == 1:
			return fmt.Errorf("merge: rule cycle through rule %d", ref)
		case state[ref] == 2:
			return nil
		}
		state[ref] = 1
		for _, s := range p.Rules[ref] {
			if s.IsRule {
				if err := visit(s.Ref); err != nil {
					return err
				}
				depth[ref] = max(depth[ref], depth[s.Ref])
			}
			c.ruleLen[ref] += int64(s.Count) * c.unit(s)
		}
		state[ref] = 2
		depth[ref]++
		c.depth = max(c.depth, depth[ref])
		return nil
	}
	for ref := range p.Rules {
		if err := visit(ref); err != nil {
			return nil, err
		}
	}
	c.depth++ // the main frame
	for _, m := range p.Mains {
		for _, ms := range m.Body {
			if ms.IsRule && (ms.Ref < 0 || ms.Ref >= len(p.Rules)) {
				return nil, fmt.Errorf("merge: dangling rule ref %d", ms.Ref)
			}
		}
	}
	return c, nil
}

// Clone returns an unpositioned cursor over the same validated program.
func (c *Cursor) Clone() *Cursor { return &Cursor{p: c.p, ruleLen: c.ruleLen, depth: c.depth} }

// Reset positions the cursor before the first terminal of the rank. Its
// buffers are sized on first use, so a walk never grows them.
func (c *Cursor) Reset(rank int) error {
	c.main, c.stack = c.main[:0], c.stack[:0]
	m, err := c.p.mainOf(rank)
	if err != nil {
		return err
	}
	c.rank, c.body = rank, m.Body
	if cap(c.main) < len(m.Body) {
		c.main = make([]Sym, 0, len(m.Body))
	}
	if cap(c.stack) < c.depth {
		c.stack = make([]frame, 0, c.depth)
	}
	for _, ms := range m.Body {
		if ms.Ranks.Contains(rank) {
			c.main = append(c.main, ms.Sym)
		}
	}
	c.stack = append(c.stack, frame{syms: c.main, ref: -1})
	return nil
}

// Len returns the length of the rank's expansion.
func (c *Cursor) Len() int64 {
	var n int64
	for _, s := range c.main {
		n += int64(s.Count) * c.unit(s)
	}
	return n
}

// unit is the expanded length of one repetition of s.
func (c *Cursor) unit(s Sym) int64 {
	if s.IsRule {
		return c.ruleLen[s.Ref]
	}
	return 1
}

// Next advances to the next terminal, reporting false at the end. A run of
// terminals costs one pass of the loop each: the frame moves past a
// terminal's last repetition as it returns it.
func (c *Cursor) Next() bool {
	for len(c.stack) > 0 {
		top := len(c.stack) - 1
		f := &c.stack[top]
		if f.pos == len(f.syms) {
			c.stack = c.stack[:top]
			if top > 0 {
				c.stack[top-1].done++
			}
			continue
		}
		s := &f.syms[f.pos]
		switch {
		case f.done >= s.Count:
			f.pos, f.done = f.pos+1, 0
		case !s.IsRule:
			c.term = s.Ref
			if f.done++; f.done == s.Count {
				f.pos, f.done = f.pos+1, 0
			}
			return true
		default:
			c.stack = append(c.stack, frame{syms: c.p.Rules[s.Ref], ref: s.Ref})
		}
	}
	return false
}

// Term returns the global terminal id the cursor stands on.
func (c *Cursor) Term() int { return c.term }

// Append appends the terminals after the cursor's position to buf, leaving
// the cursor at the end.
func (c *Cursor) Append(buf []int) []int {
	for c.Next() {
		buf = append(buf, c.term)
	}
	return buf
}

// SeekEvent positions the cursor on the rank's i-th terminal (from 0) in
// O(grammar depth), reporting false when i is out of range. Next then
// continues from terminal i+1.
func (c *Cursor) SeekEvent(i int64) bool {
	c.stack = append(c.stack[:0], frame{syms: c.main, ref: -1})
	for i >= 0 {
		f := &c.stack[len(c.stack)-1]
		if f.pos == len(f.syms) {
			return false
		}
		s := f.syms[f.pos]
		unit := c.unit(s)
		if n := int64(s.Count) * unit; i >= n {
			i -= n
			f.pos++
			continue
		}
		f.done, i = int(i/unit), i%unit
		if !s.IsRule {
			c.term = s.Ref
			f.done++
			return true
		}
		c.stack = append(c.stack, frame{syms: c.p.Rules[s.Ref], ref: s.Ref})
	}
	return false
}

// Path names the terminal the cursor stands on by its place in the
// compressed program: "main[2]/R4[1]/T7" reads "the 3rd main symbol, the
// 2nd symbol of rule 4, terminal 7". Call it only while Next or SeekEvent
// has the cursor on a terminal.
func (c *Cursor) Path() string {
	top := len(c.stack) - 1
	pos := func(i int) int {
		if f := c.stack[i]; i == top && f.done == 0 {
			return f.pos - 1 // moved past the terminal's last repetition
		}
		return c.stack[i].pos
	}
	b := fmt.Appendf(nil, "main[%d]", c.bodyIndex(pos(0)))
	for i := 1; i <= top; i++ {
		b = fmt.Appendf(b, "/R%d[%d]", c.stack[i].ref, pos(i))
	}
	return string(fmt.Appendf(b, "/T%d", c.term))
}

// bodyIndex maps the rank's i-th main symbol to its index in the main body.
func (c *Cursor) bodyIndex(i int) int {
	for j, ms := range c.body {
		if ms.Ranks.Contains(c.rank) {
			if i == 0 {
				return j
			}
			i--
		}
	}
	return -1
}
