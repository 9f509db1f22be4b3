package codegen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"siesta/internal/blocks"
	"siesta/internal/merge"
)

// Proxies is the computation-proxy table of a program: per cluster, the
// solved block combination and the mean duration a sleep replay uses.
type Proxies struct {
	Combos     []blocks.Combination
	SleepTimes []float64
}

// Search is one program's computation-proxy searches in flight: one
// constrained-QP search per cluster (§2.4), against the cluster's target
// divided by the scaling factor (§2.7). StartSearch makes every cluster's
// memo lookup on the caller, in cluster order, so the memo sees exactly
// the lookups — hits, misses and recency order — of a serial loop however
// many goroutines then solve; the solves are pure, so the table is the
// same too. Every Search ends in Wait or in Stop.
type Search struct {
	lookups []blocks.Lookup
	out     Proxies
	errs    []error
	next    atomic.Int64 // the next cluster to claim
	stop    atomic.Bool
	wg      sync.WaitGroup
}

// StartSearch looks up every cluster of prog and starts up to workers
// goroutines solving them in cluster order; with none, Wait solves them
// all on its caller.
func StartSearch(prog *merge.Program, opts Options, workers int) *Search {
	opts = opts.withDefaults()
	bm := opts.BMatrix
	if bm == nil {
		bm = blocks.MeasureB(opts.Platform, opts.BenchNoise)
	}
	n := len(prog.Clusters)
	s := &Search{
		lookups: make([]blocks.Lookup, n),
		out:     Proxies{Combos: make([]blocks.Combination, n), SleepTimes: make([]float64, n)},
		errs:    make([]error, n),
	}
	for i, cl := range prog.Clusters {
		target := cl.Target()
		if opts.Scale != 1 {
			target = target.Scale(1 / opts.Scale)
		}
		s.lookups[i] = opts.SearchMemo.Lookup(bm, target)
		s.out.SleepTimes[i] = cl.MeanTime() / opts.Scale
	}
	workers = min(workers, n)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			s.work()
		}()
	}
	return s
}

// work solves clusters in claim order until none is left or Stop is
// called. A claimed cluster is always solved, so a lookup waiting on
// another cluster's solve of the same key never waits in vain.
func (s *Search) work() {
	for !s.stop.Load() {
		i := int(s.next.Add(1) - 1)
		if i >= len(s.lookups) {
			return
		}
		s.out.Combos[i], s.errs[i] = s.lookups[i].Result()
	}
}

// Wait solves on the caller the clusters no worker has claimed, joins the
// workers, and returns the table — or the error of the lowest-numbered
// cluster whose search failed, whatever order the solves ran in.
func (s *Search) Wait() (*Proxies, error) {
	s.work()
	s.wg.Wait()
	for i, err := range s.errs {
		if err != nil {
			return nil, fmt.Errorf("codegen: cluster %d: %w", i, err)
		}
	}
	return &s.out, nil
}

// Stop abandons the searches on a path that will not call Wait: no
// cluster is claimed after it, it returns once every worker has finished
// the solve in hand, and it releases the memo entries of the misses
// nobody solved. After Wait it does nothing.
func (s *Search) Stop() {
	s.stop.Store(true)
	s.wg.Wait()
	for i := int(s.next.Load()); i < len(s.lookups); i++ {
		s.lookups[i].Release()
	}
}
