// Package scalabench reimplements the ScalaBench proxy-app generator the
// paper compares against in §3.4 (Wu, Deshpande & Mueller, IPDPS 2012,
// built on ScalaTrace). The defining design choices — and the failure modes
// the paper's experiments expose — are reproduced faithfully:
//
//   - Communication parameters are compressed *lossily*: message volumes
//     are pooled into power-of-two histogram buckets per MPI function, and
//     replay uses bucket means. The original communication pattern cannot
//     be exactly restored, so changing the MPI implementation (which
//     reprices the distorted volumes, flips eager/rendezvous decisions,
//     etc.) moves the replay away from the original (Fig. 7).
//
//   - Computation is recorded as wall-clock intervals and replayed by
//     sleeping for the recorded (histogram-compressed) time. Sleeps do not
//     speed up or slow down with the hardware, so porting the proxy to a
//     different platform leaves its compute time frozen (Figs. 8–9).
//
//   - Communicator management operations (MPI_Comm_split/dup/free) are not
//     supported by the replay coordinator; traces containing them fail at
//     generation time, which is why the paper shows no ScalaBench bars for
//     the FLASH problems.
package scalabench

import (
	"fmt"
	"math"
	"math/bits"

	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/proxy"
	"siesta/internal/trace"
	"siesta/internal/vtime"
)

// Options tunes the generator.
type Options struct {
	// MaxRanks emulates the replay coordinator's capacity limit; traces
	// from more ranks fail at generation, as the paper observed for SP at
	// its two largest configurations. 0 disables the limit.
	MaxRanks int
}

// step is one replay action on one rank.
type step struct {
	rec   *trace.Record // nil for compute steps
	sleep float64       // sleep duration for compute steps
}

// rsd is a regular section descriptor: a body of steps repeated Count
// times — ScalaTrace's compression primitive.
type rsd struct {
	body  []step
	count int
}

// Proxy is a generated ScalaBench replay.
type Proxy struct {
	NumRanks int
	mains    [][]step
	// compressed holds the RSD form of each rank's program, which is what
	// ScalaTrace would store; CompressedSteps reports its size.
	compressed [][]rsd
}

// CompressedSteps reports the total step count of the RSD-compressed
// representation across ranks (the storage ScalaTrace would keep).
func (p *Proxy) CompressedSteps() int {
	n := 0
	for _, rs := range p.compressed {
		for _, r := range rs {
			n += len(r.body)
		}
	}
	return n
}

// RawSteps reports the uncompressed step count across ranks.
func (p *Proxy) RawSteps() int {
	n := 0
	for _, m := range p.mains {
		n += len(m)
	}
	return n
}

// stepEqual compares two steps for RSD matching: same record pointer (the
// distorted records are interned per rank) or both sleeps with equal
// (histogram-bucketed) durations.
func stepEqual(a, b step) bool {
	if (a.rec == nil) != (b.rec == nil) {
		return false
	}
	if a.rec != nil {
		return a.rec == b.rec
	}
	return a.sleep == b.sleep
}

// compressRSD greedily folds immediately repeating windows into RSDs, the
// power-RSD construction of ScalaTrace (single level, window-bounded).
func compressRSD(steps []step, maxWindow int) []rsd {
	var out []rsd
	i := 0
	for i < len(steps) {
		bestW, bestReps := 0, 0
		for w := 1; w <= maxWindow && i+2*w <= len(steps); w++ {
			reps := 1
			for i+(reps+1)*w <= len(steps) {
				match := true
				for k := 0; k < w; k++ {
					if !stepEqual(steps[i+k], steps[i+reps*w+k]) {
						match = false
						break
					}
				}
				if !match {
					break
				}
				reps++
			}
			if reps > 1 && reps*w > bestReps*bestW {
				bestW, bestReps = w, reps
			}
		}
		if bestReps > 1 {
			out = append(out, rsd{body: steps[i : i+bestW], count: bestReps})
			i += bestW * bestReps
		} else {
			// Extend the previous literal RSD if possible.
			if len(out) > 0 && out[len(out)-1].count == 1 {
				out[len(out)-1].body = append(out[len(out)-1].body, steps[i])
			} else {
				out = append(out, rsd{body: steps[i : i+1], count: 1})
			}
			i++
		}
	}
	return out
}

// histogram pools values into power-of-two buckets and answers bucket means.
type histogram struct {
	sum   map[int]float64
	count map[int]int
}

func newHistogram() *histogram {
	return &histogram{sum: map[int]float64{}, count: map[int]int{}}
}

// bucketOf pools values into power-of-four ranges: ScalaTrace's "relaxed
// iterative matching criteria" merge events whose parameters are merely
// similar, so the effective histogram resolution is coarse.
func bucketOf(v float64) int {
	if v <= 0 {
		return -1
	}
	return bits.Len64(uint64(v)) / 2
}

func (h *histogram) add(v float64) {
	b := bucketOf(v)
	h.sum[b] += v
	h.count[b]++
}

func (h *histogram) mean(v float64) float64 {
	b := bucketOf(v)
	if h.count[b] == 0 {
		return v
	}
	return h.sum[b] / float64(h.count[b])
}

// Generate builds a ScalaBench proxy from a trace.
func Generate(tr *trace.Trace, opts Options) (*Proxy, error) {
	if opts.MaxRanks > 0 && tr.NumRanks > opts.MaxRanks {
		return nil, fmt.Errorf("scalabench: replay coordinator supports at most %d ranks, trace has %d",
			opts.MaxRanks, tr.NumRanks)
	}
	// Reject communicator management up front (ScalaTrace limitation).
	for _, rt := range tr.Ranks {
		for _, r := range rt.Table {
			if r.Func.Desc().Kind == mpicall.KindComm {
				return nil, fmt.Errorf("scalabench: cannot compress communicator operation %s", r.Func)
			}
		}
	}

	// Pass 1: build the per-function volume histograms and the compute
	// interval histogram over the whole job.
	volumes := map[mpicall.Func]*histogram{}
	sleeps := newHistogram()
	for _, rt := range tr.Ranks {
		if len(rt.Durs) != len(rt.Events) {
			return nil, fmt.Errorf("scalabench: trace has no timing information")
		}
		for i, id := range rt.Events {
			r := rt.Table[id]
			if r.IsCompute() {
				sleeps.add(rt.Durs[i])
				continue
			}
			if r.Bytes > 0 {
				h := volumes[r.Func]
				if h == nil {
					h = newHistogram()
					volumes[r.Func] = h
				}
				h.add(float64(r.Bytes))
			}
		}
	}

	// Pass 2: emit per-rank replay programs with histogram-mean volumes
	// and histogram-mean sleeps.
	p := &Proxy{NumRanks: tr.NumRanks, mains: make([][]step, tr.NumRanks)}
	for _, rt := range tr.Ranks {
		distorted := make([]*trace.Record, len(rt.Table))
		for id, r := range rt.Table {
			if r.IsCompute() || r.Bytes == 0 {
				distorted[id] = r
				continue
			}
			c := r.Clone()
			c.Bytes = int(math.Round(volumes[r.Func].mean(float64(r.Bytes))))
			if len(c.Counts) > 0 {
				// v-collectives lose their per-destination shape:
				// the histogram keeps only the total.
				per := c.Bytes / len(c.Counts)
				for j := range c.Counts {
					c.Counts[j] = per
				}
			}
			distorted[id] = c
		}
		prog := make([]step, 0, len(rt.Events))
		for i, id := range rt.Events {
			r := distorted[id]
			if r.IsCompute() {
				prog = append(prog, step{sleep: sleeps.mean(rt.Durs[i])})
			} else {
				prog = append(prog, step{rec: r})
			}
		}
		p.mains[rt.Rank] = prog
		p.compressed = append(p.compressed, compressRSD(prog, 64))
	}
	return p, nil
}

// Run replays the proxy in the given environment.
func (p *Proxy) Run(cfg mpi.Config) (*mpi.RunResult, error) {
	cfg.Size = p.NumRanks
	w := mpi.NewWorld(cfg)
	res, err := w.Run(func(r *mpi.Rank) {
		// Replay from the RSD form, as the generated benchmark would.
		rp := proxy.NewReplayer(r.World())
		for _, sec := range p.compressed[r.Rank()] {
			for rep := 0; rep < sec.count; rep++ {
				for _, s := range sec.body {
					if s.rec == nil {
						r.Elapse(vtime.Duration(s.sleep))
					} else if err := rp.ExecComm(r, s.rec); err != nil {
						panic(err)
					}
				}
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("scalabench: replay failed: %w", err)
	}
	return res, nil
}
