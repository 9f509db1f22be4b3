package merge

import (
	"fmt"

	"siesta/internal/perfmodel"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// Decode parses a program produced by Program.Encode. It is the read side
// of the size_C serialization: `siesta check` lints programs from disk
// through it, and round-tripping is covered by tests so the two sides
// cannot drift silently.
func Decode(data []byte) (*Program, error) {
	d := trace.NewDec(data)
	magic, err := d.Str()
	if err != nil || magic != "SIESTA-PROG1" {
		return nil, fmt.Errorf("merge: bad magic %q: %v", magic, err)
	}
	p := &Program{}
	if p.NumRanks, err = d.Int(); err != nil {
		return nil, err
	}
	if p.Platform, err = d.Str(); err != nil {
		return nil, err
	}
	if p.Impl, err = d.Str(); err != nil {
		return nil, err
	}
	if p.MergeRounds, err = d.Int(); err != nil {
		return nil, err
	}

	nterm, err := boundedCount(d, "terminal")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nterm; i++ {
		r := new(trace.Record)
		if err := trace.DecodeRecord(d, r); err != nil {
			return nil, fmt.Errorf("merge: terminal %d: %w", i, err)
		}
		p.Terminals = append(p.Terminals, r)
	}

	ncl, err := boundedCount(d, "cluster")
	if err != nil {
		return nil, err
	}
	for i := 0; i < ncl; i++ {
		c := &trace.Cluster{}
		for m := 0; m < int(perfmodel.NumMetrics); m++ {
			if c.Sum[m], err = d.Float(); err != nil {
				return nil, err
			}
		}
		if c.N, err = d.Int(); err != nil {
			return nil, err
		}
		if c.TimeSum, err = d.Float(); err != nil {
			return nil, err
		}
		// Rep is not serialized (it only steers clustering during the
		// build); the mean is the usable representative after decoding.
		c.Rep = c.Target()
		p.Clusters = append(p.Clusters, c)
	}

	nrules, err := boundedCount(d, "rule")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nrules; i++ {
		nsym, err := boundedCount(d, "rule symbol")
		if err != nil {
			return nil, err
		}
		rule := make([]Sym, nsym)
		for j := range rule {
			if rule[j], err = decodeSym(d); err != nil {
				return nil, err
			}
		}
		p.Rules = append(p.Rules, rule)
	}

	nmains, err := boundedCount(d, "main")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nmains; i++ {
		ranks, err := d.Ints()
		if err != nil {
			return nil, err
		}
		m := Main{Ranks: rankset.New(ranks...)}
		nbody, err := boundedCount(d, "main symbol")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nbody; j++ {
			var ms MainSym
			if ms.Sym, err = decodeSym(d); err != nil {
				return nil, err
			}
			if ms.Ranks, err = decodeIntervals(d); err != nil {
				return nil, err
			}
			m.Body = append(m.Body, ms)
		}
		p.Mains = append(p.Mains, m)
	}

	// Referential integrity, so downstream consumers can index freely.
	for ri, rule := range p.Rules {
		for _, s := range rule {
			if err := p.checkSym(s); err != nil {
				return nil, fmt.Errorf("merge: rule %d: %w", ri, err)
			}
		}
	}
	for mi, m := range p.Mains {
		for _, ms := range m.Body {
			if err := p.checkSym(ms.Sym); err != nil {
				return nil, fmt.Errorf("merge: main %d: %w", mi, err)
			}
		}
	}
	return p, nil
}

func (p *Program) checkSym(s Sym) error {
	if s.IsRule {
		if s.Ref < 0 || s.Ref >= len(p.Rules) {
			return fmt.Errorf("symbol references rule %d of %d", s.Ref, len(p.Rules))
		}
		return nil
	}
	if s.Ref < 0 || s.Ref >= len(p.Terminals) {
		return fmt.Errorf("symbol references terminal %d of %d", s.Ref, len(p.Terminals))
	}
	return nil
}

func boundedCount(d *trace.Dec, what string) (int, error) {
	n, err := d.Int()
	if err != nil {
		return 0, err
	}
	if n < 0 || n > d.Remaining() {
		return 0, fmt.Errorf("merge: %s count %d exceeds remaining input %d", what, n, d.Remaining())
	}
	return n, nil
}

func decodeSym(d *trace.Dec) (Sym, error) {
	var s Sym
	var err error
	if s.Ref, err = d.Int(); err != nil {
		return s, err
	}
	isRule, err := d.Int()
	if err != nil {
		return s, err
	}
	s.IsRule = isRule != 0
	if s.Count, err = d.Int(); err != nil {
		return s, err
	}
	return s, nil
}

func decodeIntervals(d *trace.Dec) (*rankset.Set, error) {
	n, err := d.Int()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining() {
		return nil, fmt.Errorf("merge: interval count %d exceeds remaining input %d", n, d.Remaining())
	}
	s := rankset.New()
	for i := 0; i < n; i++ {
		lo, err := d.Int()
		if err != nil {
			return nil, err
		}
		hi, err := d.Int()
		if err != nil {
			return nil, err
		}
		if lo > hi {
			return nil, fmt.Errorf("merge: malformed interval [%d,%d]", lo, hi)
		}
		s = s.Union(rankset.Range(lo, hi+1)) // intervals are inclusive

	}
	return s, nil
}
