package merge_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/proxy"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// This file freezes the two grammar walkers merge.Cursor replaced:
// Program.AppendExpansion's recursive expansion and the check package's
// pathFinder, which folded rule lengths a second time and descended them to
// name an event's grammar path. Do not optimise or otherwise edit these
// copies: their value is that they are the old code, an independent
// reference the cursor is compared against.

// refMainOf is the main-group lookup each old walker carried a copy of.
func refMainOf(p *merge.Program, rank int) *merge.Main {
	for i := range p.Mains {
		if p.Mains[i].Ranks.Contains(rank) {
			return &p.Mains[i]
		}
	}
	return nil
}

// refAppendExpansion is Program.AppendExpansion, copied verbatim.
func refAppendExpansion(p *merge.Program, rank int, buf []int) ([]int, error) {
	m := refMainOf(p, rank)
	if m == nil {
		return nil, fmt.Errorf("merge: rank %d has no main rule", rank)
	}
	out := buf
	var expand func(s merge.Sym) error
	expand = func(s merge.Sym) error {
		for c := 0; c < s.Count; c++ {
			if !s.IsRule {
				out = append(out, s.Ref)
				continue
			}
			if s.Ref < 0 || s.Ref >= len(p.Rules) {
				return fmt.Errorf("merge: dangling rule ref %d", s.Ref)
			}
			for _, inner := range p.Rules[s.Ref] {
				if err := expand(inner); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, ms := range m.Body {
		if !ms.Ranks.Contains(rank) {
			continue
		}
		if err := expand(ms.Sym); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// refPathFinder is check's pathFinder, copied verbatim.
type refPathFinder struct {
	p       *merge.Program
	ruleLen []int // expanded length of one iteration of each rule
}

func newRefPathFinder(p *merge.Program) *refPathFinder {
	pf := &refPathFinder{p: p, ruleLen: make([]int, len(p.Rules))}
	state := make([]int, len(p.Rules)) // 0 unvisited, 1 in progress, 2 done
	var lenOf func(ref int) int
	lenOf = func(ref int) int {
		if ref < 0 || ref >= len(p.Rules) || state[ref] == 1 {
			return 0 // dangling or cyclic reference: paths stay best-effort
		}
		if state[ref] == 2 {
			return pf.ruleLen[ref]
		}
		state[ref] = 1
		n := 0
		for _, s := range p.Rules[ref] {
			unit := 1
			if s.IsRule {
				unit = lenOf(s.Ref)
			}
			n += s.Count * unit
		}
		state[ref] = 2
		pf.ruleLen[ref] = n
		return n
	}
	for ref := range p.Rules {
		lenOf(ref)
	}
	return pf
}

func (pf *refPathFinder) symLen(s merge.Sym) int {
	unit := 1
	if s.IsRule {
		if s.Ref < 0 || s.Ref >= len(pf.ruleLen) {
			return 0
		}
		unit = pf.ruleLen[s.Ref]
	}
	return s.Count * unit
}

// find returns the grammar path of the idx-th expanded event of rank, or ""
// if the position cannot be resolved.
func (pf *refPathFinder) find(rank, idx int) string {
	main := refMainOf(pf.p, rank)
	if main == nil {
		return ""
	}
	var b strings.Builder
	off := idx
	for si, ms := range main.Body {
		if !ms.Ranks.Contains(rank) {
			continue
		}
		n := pf.symLen(ms.Sym)
		if off >= n {
			off -= n
			continue
		}
		fmt.Fprintf(&b, "main[%d]", si)
		pf.descend(&b, ms.Sym, off)
		return b.String()
	}
	return ""
}

// descend resolves an offset within count iterations of a symbol.
func (pf *refPathFinder) descend(b *strings.Builder, s merge.Sym, off int) {
	for depth := 0; depth < 64; depth++ { // malformed-grammar guard
		if !s.IsRule {
			fmt.Fprintf(b, "/T%d", s.Ref)
			return
		}
		unit := pf.ruleLen[s.Ref]
		if unit <= 0 {
			fmt.Fprintf(b, "/R%d", s.Ref)
			return
		}
		rem := off % unit
		found := false
		for ci, child := range pf.p.Rules[s.Ref] {
			n := pf.symLen(child)
			if rem >= n {
				rem -= n
				continue
			}
			fmt.Fprintf(b, "/R%d[%d]", s.Ref, ci)
			s, off = child, rem
			found = true
			break
		}
		if !found {
			fmt.Fprintf(b, "/R%d", s.Ref)
			return
		}
	}
}

// matchesFrozenWalkers requires the cursor to expand every rank exactly as
// the frozen AppendExpansion does, and SeekEvent plus Path to name the
// frozen pathFinder's path for sampled events, the first and last included.
func matchesFrozenWalkers(t *testing.T, p *merge.Program) {
	t.Helper()
	cur, err := merge.NewCursor(p)
	if err != nil {
		t.Fatal(err)
	}
	pf := newRefPathFinder(p)
	for rank := 0; rank < p.NumRanks; rank++ {
		want, err := refAppendExpansion(p, rank, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.Reset(rank); err != nil {
			t.Fatal(err)
		}
		if n := cur.Len(); n != int64(len(want)) {
			t.Fatalf("rank %d: Len %d, frozen expansion has %d events", rank, n, len(want))
		}
		if got := cur.Append(nil); !slices.Equal(got, want) {
			t.Fatalf("rank %d: cursor expansion differs from the frozen walker", rank)
		}
		n := len(want)
		step := max(1, n/16)
		for i := 0; i < n; i = nextSample(i, step, n) {
			if !cur.SeekEvent(int64(i)) {
				t.Fatalf("rank %d: SeekEvent(%d) failed within %d events", rank, i, n)
			}
			if cur.Term() != want[i] {
				t.Fatalf("rank %d event %d: Term %d, want %d", rank, i, cur.Term(), want[i])
			}
			if path, ref := cur.Path(), pf.find(rank, i); path != ref {
				t.Fatalf("rank %d event %d: path %q, frozen pathFinder %q", rank, i, path, ref)
			}
			if i == n/2 && !slices.Equal(cur.Append(nil), want[i+1:]) {
				t.Fatalf("rank %d: walk resumed after SeekEvent(%d) differs", rank, i)
			}
		}
		if cur.SeekEvent(int64(n)) || cur.SeekEvent(-1) {
			t.Fatalf("rank %d: SeekEvent accepted an event outside [0, %d)", rank, n)
		}
	}
}

// nextSample steps through the sampled event indices: every step-th, the
// middle and the last.
func nextSample(i, step, n int) int {
	switch {
	case i < n/2 && i+step > n/2:
		return n / 2
	case i < n-1 && i+step >= n:
		return n - 1
	}
	return i + step
}

func TestCursorMatchesFrozenWalkersApps(t *testing.T) {
	forEachApp(t, func(t *testing.T, tr *trace.Trace) {
		if tr.NumRanks != 16 && tr.NumRanks != 64 {
			t.Skip("the cursor is compared at 16 and 64 ranks")
		}
		p, err := merge.Build(tr, merge.Options{})
		if err != nil {
			t.Fatal(err)
		}
		matchesFrozenWalkers(t, p)
	})
}

func TestCursorMatchesFrozenWalkersRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		ranks := 2 + int(seed%7)
		t.Run(fmt.Sprintf("seed%d/%d", seed, ranks), func(t *testing.T) {
			t.Parallel()
			tr, err := record(ranks, uint64(seed), proxy.RandomProgram(seed, 12))
			if err != nil {
				t.Fatal(err)
			}
			p, err := merge.Build(tr, merge.Options{})
			if err != nil {
				t.Fatal(err)
			}
			matchesFrozenWalkers(t, p)
		})
	}
}

// malformedPrograms are programs built in memory that no merge produces: a
// rule cycle reachable from the main body, and a rule reference past the
// rule table.
func malformedPrograms() map[string]*merge.Program {
	all := rankset.Range(0, 2)
	mainOn := func(ref int) []merge.Main {
		return []merge.Main{{Ranks: all, Body: []merge.MainSym{
			{Sym: merge.Sym{Ref: 0, Count: 1}, Ranks: all},
			{Sym: merge.Sym{Ref: ref, IsRule: true, Count: 2}, Ranks: all},
		}}}
	}
	return map[string]*merge.Program{
		"merge: rule cycle through rule 0": {
			NumRanks: 2,
			Rules:    [][]merge.Sym{{{Ref: 1, IsRule: true, Count: 1}}, {{Ref: 0, IsRule: true, Count: 3}}},
			Mains:    mainOn(0),
		},
		"merge: dangling rule ref 7": {
			NumRanks: 2,
			Rules:    [][]merge.Sym{{{Ref: 0, Count: 1}, {Ref: 7, IsRule: true, Count: 1}}},
			Mains:    mainOn(0),
		},
	}
}

// A malformed program is rejected with an error naming the fault, where the
// old recursive walker overflowed the stack on a cycle.
func TestMalformedProgramsRejected(t *testing.T) {
	for want, p := range malformedPrograms() {
		t.Run(want, func(t *testing.T) {
			if _, err := merge.NewCursor(p); err == nil || err.Error() != want {
				t.Errorf("NewCursor: %v, want %q", err, want)
			}
			if _, err := p.ExpandRank(1); err == nil || err.Error() != want {
				t.Errorf("ExpandRank: %v, want %q", err, want)
			}
		})
	}
}

// haloProgram merges a 1-D halo exchange, iters steps on 8 ranks.
func haloProgram(t *testing.T, iters int) *merge.Program {
	t.Helper()
	tr, err := record(8, 1, func(r *mpi.Rank) {
		c := r.World()
		left, right := (r.Rank()+r.Size()-1)%r.Size(), (r.Rank()+1)%r.Size()
		for it := 0; it < iters; it++ {
			reqs := []mpi.Req{
				r.Irecv(c, left, 0), r.Irecv(c, right, 1),
				r.Isend(c, right, 0, 4096), r.Isend(c, left, 1, 4096),
			}
			r.Waitall(reqs)
			r.Allreduce(c, 8, mpi.OpSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := merge.Build(tr, merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCursorWalkAllocsFlat pins that a full walk of one rank into a
// presized buffer allocates a constant, not once per event: the frame stack
// is sized when the cursor is built.
func TestCursorWalkAllocsFlat(t *testing.T) {
	walkAllocs := func(iters int) (float64, int64) {
		cur, err := merge.NewCursor(haloProgram(t, iters))
		if err != nil {
			t.Fatal(err)
		}
		if err := cur.Reset(3); err != nil {
			t.Fatal(err)
		}
		buf := make([]int, 0, cur.Len())
		return testing.AllocsPerRun(20, func() {
			if err := cur.Reset(3); err != nil {
				t.Fatal(err)
			}
			buf = cur.Append(buf[:0])
		}), cur.Len()
	}
	small, smallEvents := walkAllocs(25)
	large, largeEvents := walkAllocs(200)
	t.Logf("walk allocs: %.0f over %d events, %.0f over %d", small, smallEvents, large, largeEvents)
	if largeEvents < 8*smallEvents-8 {
		t.Fatalf("8× the iterations expanded to %d events, %d at 1×", largeEvents, smallEvents)
	}
	if small > 0 || large > 0 {
		t.Errorf("a walk allocates: %.0f at %d events, %.0f at %d", small, smallEvents, large, largeEvents)
	}
}
