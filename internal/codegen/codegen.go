// Package codegen implements Siesta's code generation (paper §2.7 and
// Algorithm 1). From a merged Program it produces (a) the computation-proxy
// table — one searched block combination per computation cluster, (b) an
// optionally comm-shrunk copy of the program for scaled proxies, (c) the
// generated C source text, and (d) the size_C accounting (exported grammar +
// computation code blocks).
package codegen

import (
	"math"
	"sort"

	"siesta/internal/blocks"
	"siesta/internal/check"
	"siesta/internal/merge"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/qp"
	"siesta/internal/trace"
)

// Options controls generation.
type Options struct {
	// Platform is the system the micro-benchmarks run on (where the proxy
	// is generated). Defaults to platform.A.
	Platform *platform.Platform
	// Scale is the shrinking factor; 1 (or 0) disables shrinking, 10 is
	// the paper's Siesta-scaled default.
	Scale float64
	// BenchNoise perturbs the micro-benchmark B matrix like real counter
	// readings would; nil measures exactly.
	BenchNoise *perfmodel.Noise
	// BMatrix, when non-nil, is a pre-measured micro-benchmark matrix and
	// the search skips its own blocks.MeasureB call. core.Synthesize
	// leaves it nil at every Parallelism, so StartSearch measures B; a
	// caller that times the measurement on its own (perfbench's split
	// pipeline) sets it, and must have measured it from the same Platform
	// and BenchNoise state that Generate would have used, so results are
	// byte-identical either way.
	BMatrix *qp.Matrix
	// CommSamples are (function, bytes, duration) observations from the
	// trace, used to fit the blocking-communication regression that
	// drives communication shrinking when Scale > 1. Without samples (a
	// trace decoded from its encoding keeps no timings) nothing is fitted
	// and communication volumes stay as traced.
	CommSamples []CommSample
	// SearchMemo caches computation-proxy QP solves across clusters and
	// (when shared, e.g. the server's jobs) across generations. nil uses
	// the process-global blocks.DefaultMemo; caching never changes the
	// result, only skips resolving targets already solved for this B
	// matrix.
	SearchMemo *blocks.Memo
	// Check is the static verification report for the input program when
	// the caller already ran one (core.Synthesize passes its gate report
	// through). When nil — or when shrinking rewrote the program — Generate
	// re-verifies the program it actually emits. Verification findings
	// never fail generation; the summary is stamped into the C source
	// header instead.
	Check *check.Report
}

// CommSample is one blocking-communication timing observation.
type CommSample struct {
	Func  string
	Bytes int
	Dur   float64
}

// Regression is a least-squares linear fit T(bytes) = Alpha + Beta·bytes of
// one MPI function's execution time against its communication volume.
type Regression struct {
	Alpha, Beta float64
	N           int
}

// Predict evaluates the fit.
func (rg Regression) Predict(bytes int) float64 {
	return rg.Alpha + rg.Beta*float64(bytes)
}

// ShrinkBytes inverts the fit: the volume whose predicted time is the
// original's divided by scale, clamped to [1, bytes]. The lower clamp
// matters: a zero-byte message is a different message class — matching,
// eager-protocol, and verification semantics all distinguish empty from
// non-empty transfers — so shrinking must never erase a real payload.
func (rg Regression) ShrinkBytes(bytes int, scale float64) int {
	if rg.Beta <= 0 || rg.N < 2 || bytes <= 0 {
		return bytes
	}
	target := rg.Predict(bytes) / scale
	nb := (target - rg.Alpha) / rg.Beta
	if nb > float64(bytes) {
		nb = float64(bytes)
	}
	if out := int(math.Round(nb)); out >= 1 {
		return out
	}
	return 1
}

// Generated is the output of code generation: everything needed to run or
// print the proxy-app.
type Generated struct {
	Prog   *merge.Program       // possibly comm-shrunk program
	Combos []blocks.Combination // per computation cluster
	Scale  float64
	// SleepTimes are the per-cluster mean durations, retained so the
	// sleep-replay ablation can run from the same artifact.
	SleepTimes  []float64
	Regressions map[string]Regression
	// SizeC is the exported representation size: encoded program plus the
	// computation code-block table (paper Table 3's size_C).
	SizeC int
	// Check is the static verification report stamped into the C source
	// header; nil only if verification itself failed structurally.
	Check *check.Report
	// GeneratedOn names the platform whose B matrix the search used.
	GeneratedOn string
}

// blockingFuncs are the calls whose duration scales with volume and which
// communication shrinking therefore rewrites. Non-blocking calls "take tiny
// execution time and can be neglected" (paper §2.7).
var blockingFuncs = map[string]bool{
	"MPI_Send": true, "MPI_Recv": true, "MPI_Sendrecv": true,
	"MPI_Isend": true, // transfers expose at Wait once computation shrinks
	"MPI_Bcast": true, "MPI_Reduce": true, "MPI_Allreduce": true,
	"MPI_Gather": true, "MPI_Scatter": true, "MPI_Allgather": true,
	"MPI_Alltoall": true, "MPI_Alltoallv": true, "MPI_Gatherv": true,
	"MPI_Allgatherv": true,
}

// CollectCommSamples gathers blocking-communication timing samples from a
// trace for the shrink regression, reduced to what the fit uses: the
// minimum duration per (function, bytes), sorted. Fitting the reduction
// gives the fit of the raw samples bit for bit, so a checkpoint can carry
// it in place of the timed trace. Non-blocking calls are excluded: their
// call duration measures only software overhead, not the transfer, so they
// would poison the fit — their volumes are still shrunk (through the
// matching blocking fit) because the transfers they start expose at Wait.
// A nil trace, or one without timings (decoded from its encoding), has no
// samples.
func CollectCommSamples(tr *trace.Trace) []CommSample {
	if tr == nil {
		return nil
	}
	var out []CommSample
	for _, rt := range tr.Ranks {
		if len(rt.Durs) != len(rt.Events) {
			continue // trace without timing (e.g. decoded from disk)
		}
		for i, id := range rt.Events {
			r := rt.Table[id]
			if blockingFuncs[r.Func] && r.Func != "MPI_Isend" {
				out = append(out, CommSample{Func: r.Func, Bytes: r.Bytes, Dur: rt.Durs[i]})
			}
		}
	}
	return commMinima(out)
}

// commMinima reduces samples to the minimum duration per (function,
// volume): call durations in a trace include synchronization waits
// (rendezvous partners, collective stragglers), and the minimum isolates
// the transfer cost the shrink model needs. The result is sorted by
// function, then volume: the fit's accumulator folds sum floats, so the
// fold order — and with it the last ulp of the fitted coefficients — must
// not depend on map iteration order.
func commMinima(samples []CommSample) []CommSample {
	if len(samples) == 0 {
		return nil
	}
	type key struct {
		f string
		b int
	}
	mins := map[key]float64{}
	for _, s := range samples {
		k := key{s.Func, s.Bytes}
		if v, ok := mins[k]; !ok || s.Dur < v {
			mins[k] = s.Dur
		}
	}
	out := make([]CommSample, 0, len(mins))
	for k, v := range mins { //maporder:ok — sorted below
		out = append(out, CommSample{Func: k.f, Bytes: k.b, Dur: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Bytes < out[j].Bytes
	})
	return out
}

// fitRegressions computes one linear fit per function on the samples'
// per-(function, volume) minima (commMinima). Many traces exercise a
// function at a single message size (a fixed halo width, say), which makes
// the per-function fit degenerate; those functions fall back to a pooled
// fit over all blocking samples, which spans the trace's full volume range.
func fitRegressions(samples []CommSample) map[string]Regression {
	samples = commMinima(samples)
	type acc struct {
		n                float64
		sx, sy, sxx, sxy float64
		minx, maxx       float64
	}
	fit := func(a *acc) (Regression, bool) {
		rg := Regression{N: int(a.n)}
		den := a.n*a.sxx - a.sx*a.sx
		// Require genuine volume variance for a meaningful slope.
		if a.n >= 2 && a.maxx > a.minx && den > 1e-30 {
			rg.Beta = (a.n*a.sxy - a.sx*a.sy) / den
			rg.Alpha = (a.sy - rg.Beta*a.sx) / a.n
			if rg.Beta < 0 {
				rg.Beta = 0
				rg.Alpha = a.sy / a.n
			}
			if rg.Alpha < 0 {
				rg.Alpha = 0
			}
			return rg, rg.Beta > 0
		}
		if a.n > 0 {
			rg.Alpha = a.sy / a.n
		}
		return rg, false
	}
	accs := map[string]*acc{}
	var pooled acc
	add := func(a *acc, x, y float64) {
		if a.n == 0 || x < a.minx {
			a.minx = x
		}
		if a.n == 0 || x > a.maxx {
			a.maxx = x
		}
		a.n++
		a.sx += x
		a.sy += y
		a.sxx += x * x
		a.sxy += x * y
	}
	for _, s := range samples {
		a := accs[s.Func]
		if a == nil {
			a = &acc{}
			accs[s.Func] = a
		}
		add(a, float64(s.Bytes), s.Dur)
		add(&pooled, float64(s.Bytes), s.Dur)
	}
	pooledFit, pooledOK := fit(&pooled)
	out := map[string]Regression{}
	for f, a := range accs {
		rg, ok := fit(a)
		if !ok && pooledOK {
			// Keep the function's own intercept scale but borrow the
			// pooled slope: T = mean(T_f) shifted by the pooled β.
			rg = Regression{
				Alpha: maxFloat(0, a.sy/a.n-pooledFit.Beta*a.sx/a.n),
				Beta:  pooledFit.Beta,
				N:     pooledFit.N,
			}
		}
		out[f] = rg
	}
	// Non-blocking sends shrink through the blocking-send fit: the
	// transfer they start is priced the same on the wire.
	if sendRg, ok := out["MPI_Send"]; ok && sendRg.Beta > 0 {
		out["MPI_Isend"] = sendRg
	} else if pooledOK {
		out["MPI_Isend"] = pooledFit
	}
	return out
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func (o Options) withDefaults() Options {
	if o.Platform == nil {
		o.Platform = platform.A
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

// Generate runs the full code-generation stage: the computation-proxy
// searches, then GenerateFrom over their table.
func Generate(prog *merge.Program, opts Options) (*Generated, error) {
	px, err := StartSearch(prog, opts, 0).Wait()
	if err != nil {
		return nil, err
	}
	return GenerateFrom(prog, px, opts), nil
}

// GenerateFrom generates the proxy from a computation-proxy table already
// searched for prog under the same options (see StartSearch).
func GenerateFrom(prog *merge.Program, px *Proxies, opts Options) *Generated {
	opts = opts.withDefaults()
	g := &Generated{
		Prog:        prog,
		Combos:      px.Combos,
		SleepTimes:  px.SleepTimes,
		Scale:       opts.Scale,
		GeneratedOn: opts.Platform.Name,
	}

	// Communication shrinking (§2.7): fit blocking-call time against
	// volume and rewrite volumes so each call's predicted time shrinks by
	// the scaling factor.
	if opts.Scale != 1 {
		g.Regressions = fitRegressions(opts.CommSamples)
		g.Prog = shrinkProgram(prog, g.Regressions, opts.Scale)
	}

	// Verification stamp: reuse the caller's report when it still describes
	// the program being emitted; after shrinking, re-verify the rewritten
	// program (lenient byte checking — shrinking changes volumes by design,
	// but must preserve matching structure). Failures here do not abort
	// generation: the report is advisory at this stage and the summary goes
	// into the C source header.
	if opts.Check != nil && g.Prog == prog {
		g.Check = opts.Check
	} else if rep, err := check.Verify(g.Prog, check.Options{}); err == nil {
		g.Check = rep
	}

	g.SizeC = len(g.Prog.Encode()) + len(encodeCombos(g.Combos))
	return g
}

// shrinkProgram clones the program with blocking-communication volumes
// rewritten through the regressions.
func shrinkProgram(p *merge.Program, regs map[string]Regression, scale float64) *merge.Program {
	out := *p
	out.Terminals = make([]*trace.Record, len(p.Terminals))
	for i, r := range p.Terminals {
		if !blockingFuncs[r.Func] {
			out.Terminals[i] = r
			continue
		}
		rg, ok := regs[r.Func]
		if !ok {
			out.Terminals[i] = r
			continue
		}
		c := r.Clone()
		c.Bytes = rg.ShrinkBytes(r.Bytes, scale)
		if len(c.Counts) > 0 {
			// v-collectives: shrink per-destination counts in the
			// same proportion as the total.
			ratio := 0.0
			if r.Bytes > 0 {
				ratio = float64(c.Bytes) / float64(r.Bytes)
			}
			for j := range c.Counts {
				c.Counts[j] = int(math.Round(float64(c.Counts[j]) * ratio))
				if c.Counts[j] < 1 && r.Counts[j] > 0 {
					c.Counts[j] = 1 // like ShrinkBytes: keep nonzero lanes nonzero
				}
			}
		}
		out.Terminals[i] = c
	}
	return &out
}

// encodeCombos serializes the computation code-block table; its size counts
// toward size_C ("the sum of the size of the symbol table and the
// computation code blocks").
func encodeCombos(combos []blocks.Combination) []byte {
	var e trace.Enc
	e.Int(len(combos))
	for _, c := range combos {
		for _, n := range c.Counts {
			e.Varint(n)
		}
	}
	return e.Bytes()
}
