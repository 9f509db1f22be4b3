// Package merge implements Siesta's inter-process pattern extraction (paper
// §2.6): merging per-rank terminal tables into a global table (with the
// log₂P tree-reduction structure), merging identical non-terminals across
// ranks in depth order, and merging SPMD main rules with the LCS-based
// algorithm under edit-distance clustering. Its output, Program, is the
// compressed whole-job representation that code generation consumes and
// whose encoded size is the paper's size_C.
package merge

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"siesta/internal/perfmodel"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// Sym is one grammar symbol in the merged program: a reference to a global
// terminal or to a merged rule, with a run-length count.
type Sym struct {
	Ref    int
	IsRule bool
	Count  int
}

// MainSym is a main-rule symbol annotated with the set of ranks that execute
// it.
type MainSym struct {
	Sym
	Ranks *rankset.Set
}

// Main is one merged main-rule group: the shared body for a cluster of
// SPMD-similar ranks.
type Main struct {
	Ranks *rankset.Set // all ranks in the group
	Body  []MainSym
}

// Program is the merged, compressed representation of a whole job's trace.
type Program struct {
	NumRanks  int
	Platform  string
	Impl      string
	Terminals []*trace.Record  // global terminal table
	Clusters  []*trace.Cluster // global computation clusters
	Rules     [][]Sym          // merged non-terminal rules
	Mains     []Main           // one per main-rule cluster

	// MergeRounds records the ⌈log₂P⌉ tree-reduction depth of the
	// terminal-table merge, for reports.
	MergeRounds int
}

// Stats summarizes a Program for reports and Table 3.
type Stats struct {
	Terminals    int
	Clusters     int
	Rules        int
	RuleSymbols  int
	MainGroups   int
	MainSymbols  int
	EncodedBytes int
}

// Stats computes the program's summary.
func (p *Program) Stats() Stats {
	s := Stats{
		Terminals:  len(p.Terminals),
		Clusters:   len(p.Clusters),
		Rules:      len(p.Rules),
		MainGroups: len(p.Mains),
	}
	for _, r := range p.Rules {
		s.RuleSymbols += len(r)
	}
	for _, m := range p.Mains {
		s.MainSymbols += len(m.Body)
	}
	s.EncodedBytes = len(p.Encode())
	return s
}

// mainOf returns the main group containing the rank.
func (p *Program) mainOf(rank int) (*Main, error) {
	for i := range p.Mains {
		if p.Mains[i].Ranks.Contains(rank) {
			return &p.Mains[i], nil
		}
	}
	return nil, fmt.Errorf("merge: rank %d has no main rule", rank)
}

// ExpandRank reconstructs the rank's full global-terminal-id event sequence.
// This is the losslessness check: for every rank the expansion must equal
// the rank's original trace rewritten to global ids.
func (p *Program) ExpandRank(rank int) ([]int, error) { return p.AppendExpansion(rank, nil) }

// AppendExpansion appends the rank's expansion to buf and returns the
// extended slice.
func (p *Program) AppendExpansion(rank int, buf []int) ([]int, error) {
	c, err := NewCursor(p)
	if err == nil {
		err = c.Reset(rank)
	}
	if err != nil {
		return nil, err
	}
	return c.Append(buf), nil
}

// TerminalCounter counts how many times each global terminal id occurs in a
// rank's expansion, without expanding: rule subtrees are folded once into
// sparse per-terminal count maps, memoized across calls, and weighted by
// run-length multiplicities on the way up. The grammar is a DAG (cycles are
// rejected), so folding all P ranks costs O(|grammar|) once plus O(main
// body × distinct terminals) per rank, versus O(|trace|) for ExpandRank.
// This is the core of the paper's claim that the grammar is an exact
// compressed representation: any per-terminal additive metric over the
// trace is computable from these counts. The fold is deliberately separate
// from Cursor, so statics can cross-check its event count against the
// check machine's expansion. The counter is not safe for concurrent use.
type TerminalCounter struct {
	p        *Program
	memo     []map[int]int64
	visiting []bool
}

// NewTerminalCounter prepares a counter over the program's rules.
func (p *Program) NewTerminalCounter() *TerminalCounter {
	return &TerminalCounter{
		p:        p,
		memo:     make([]map[int]int64, len(p.Rules)),
		visiting: make([]bool, len(p.Rules)),
	}
}

func (c *TerminalCounter) ruleCounts(ref int) (map[int]int64, error) {
	p := c.p
	if ref < 0 || ref >= len(p.Rules) {
		return nil, fmt.Errorf("merge: dangling rule ref %d", ref)
	}
	if c.memo[ref] != nil {
		return c.memo[ref], nil
	}
	if c.visiting[ref] {
		return nil, fmt.Errorf("merge: rule cycle through rule %d", ref)
	}
	c.visiting[ref] = true
	defer func() { c.visiting[ref] = false }()
	counts := map[int]int64{}
	for _, s := range p.Rules[ref] {
		if !s.IsRule {
			counts[s.Ref] += int64(s.Count)
			continue
		}
		inner, err := c.ruleCounts(s.Ref)
		if err != nil {
			return nil, err
		}
		for t, n := range inner {
			counts[t] += int64(s.Count) * n
		}
	}
	c.memo[ref] = counts
	return counts, nil
}

// CountsDense writes the rank's per-terminal occurrence counts into out,
// which must have one entry per global terminal; references outside the
// terminal table are ignored.
func (c *TerminalCounter) CountsDense(rank int, out []int64) error {
	clear(out)
	m, err := c.p.mainOf(rank)
	if err != nil {
		return err
	}
	for _, ms := range m.Body {
		if !ms.Ranks.Contains(rank) {
			continue
		}
		if !ms.IsRule {
			if ms.Ref >= 0 && ms.Ref < len(out) {
				out[ms.Ref] += int64(ms.Count)
			}
			continue
		}
		inner, err := c.ruleCounts(ms.Ref)
		if err != nil {
			return err
		}
		for t, n := range inner {
			if t >= 0 && t < len(out) {
				out[t] += int64(ms.Count) * n
			}
		}
	}
	return nil
}

// Encode serializes the program in the compact binary currency shared with
// the trace layer. Its length is the paper's size_C (minus the computation
// code-block table, which code generation appends).
func (p *Program) Encode() []byte {
	var e trace.Enc
	e.Str("SIESTA-PROG1")
	e.Int(p.NumRanks)
	e.Str(p.Platform)
	e.Str(p.Impl)
	e.Int(p.MergeRounds)
	e.Int(len(p.Terminals))
	for _, r := range p.Terminals {
		trace.EncodeRecord(&e, r)
	}
	e.Int(len(p.Clusters))
	for _, c := range p.Clusters {
		for i := 0; i < int(perfmodel.NumMetrics); i++ {
			e.Float(c.Sum[i])
		}
		e.Int(c.N)
		e.Float(c.TimeSum)
	}
	e.Int(len(p.Rules))
	for _, r := range p.Rules {
		e.Int(len(r))
		for _, s := range r {
			encodeSym(&e, s)
		}
	}
	e.Int(len(p.Mains))
	for _, m := range p.Mains {
		e.Ints(m.Ranks.Ranks())
		e.Int(len(m.Body))
		for _, ms := range m.Body {
			encodeSym(&e, ms.Sym)
			encodeIntervals(&e, ms.Ranks)
		}
	}
	return e.Bytes()
}

// Digest is the sha256 of the canonical encoding — the program-identity
// half of the checkpoint/restart correctness contract: a resumed synthesis
// must reproduce the digest an uninterrupted run yields. It is cheap
// enough to stamp into journals and inspection output.
func (p *Program) Digest() string {
	sum := sha256.Sum256(p.Encode())
	return hex.EncodeToString(sum[:])
}

func encodeSym(e *trace.Enc, s Sym) {
	e.Int(s.Ref)
	if s.IsRule {
		e.Int(1)
	} else {
		e.Int(0)
	}
	e.Int(s.Count)
}

// encodeIntervals stores a rank set as interval pairs, the compact form the
// generated code's branch conditions use.
func encodeIntervals(e *trace.Enc, s *rankset.Set) {
	iv := s.Intervals()
	e.Int(len(iv))
	for _, p := range iv {
		e.Int(p[0])
		e.Int(p[1])
	}
}
