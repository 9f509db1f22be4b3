// Command siesta is the end-to-end proxy-app synthesizer CLI: it traces one
// of the built-in MPI applications on the simulated runtime, extracts the
// grammar, searches computation proxies, and emits the generated C proxy-app
// plus a fidelity report comparing the proxy replay against the original.
//
// Usage:
//
//	siesta -app CG -ranks 8 [-iters N] [-scale 10] [-platform A] [-impl openmpi]
//	       [-o proxy.c] [-trace trace.bin] [-prog prog.bin] [-report]
//	       [--faults "crash:rank=3@call=100"] [--deadline 30s] [-parallel N]
//
//	siesta check [-prog prog.bin] [-trace trace.bin] [-exact-bytes]
//	       [-absolute-ranks] [-max-diags N] [-json]
//
//	siesta analyze [-prog prog.bin | -app CG -ranks 8] [-platform A]
//	       [-exact-bytes] [-json]
//
//	siesta serve [-addr 127.0.0.1:8080] [-workers N] [-queue N]
//	       [-job-timeout 120s] [-cache-size N] [-max-parallel N]
//
//	siesta gateway [-addr 127.0.0.1:8090] [-registry URL] [-ttl 3s]
//	       [-route-refresh 500ms]
//
//	siesta worker [-addr 127.0.0.1:8081] [-registry http://127.0.0.1:8090]
//	       [-advertise URL] [-id NAME] [-heartbeat 1s] [-state-dir DIR]
//
//	siesta bench [-app CG] [-ranks 8,32,64] [-reps 3] [-json BENCH_9.json] [-pprof cpu.pprof]
//	siesta bench -exp table3|fig4..fig9|ablations|all [-quick] [-seed N]
//
//	siesta trace -app CG -n 16 [-o run.trace.json] [-format chrome|jsonl]
//	       [-replay=false] [-iters N] [-platform A] [-impl openmpi] [-seed N]
//
//	siesta jobs -state-dir DIR [-json]
//
//	siesta upload -trace run.bin [-server http://127.0.0.1:8080] [-chunk 65536]
//	       [-spill-high-water N] [-platform A] [-impl openmpi] [-seed N]
//	       [-parallel N] [-wait 10m] [-o proxy.c] [-json]
//
//	siesta inspect -in trace.bin [-rank N] [-head M] [-summary] [-gen] [-otf F] [-diff F]
//
// The check verb runs the static communication verifier over an encoded
// program (written by -prog) or a raw trace (written by -trace; it is merged
// first) and exits non-zero if any error-severity diagnostic is found. With
// -json it emits the structured reports instead of the table; exit codes are
// unchanged.
//
// The analyze verb runs the static communication-cost analyzer: exact
// per-rank traffic totals, the P×P byte-volume matrix, per-communicator
// collective stats, compute-cluster costs and the critical-path lower bound,
// all derived from the grammar without replaying anything. See DESIGN.md
// §12.
//
// The serve verb exposes the whole pipeline as an HTTP service: POST
// /v1/synthesize queues jobs onto a bounded worker pool, finished proxies are
// kept in a content-addressed artifact cache, and GET /metrics reports
// service counters in Prometheus text format. See DESIGN.md §8.
//
// The gateway and worker verbs scale serve horizontally: workers register
// with the gateway's embedded registry and heartbeat within a TTL, and the
// gateway consistent-hash-routes each request by its artifact cache key to
// the owning worker, failing jobs over (resuming from their replicated
// phase-boundary checkpoint) when a worker dies. See DESIGN.md §13.
//
// The bench verb times the parallelized synthesis stages serial vs
// parallel across rank counts and writes a JSON report; synthesis itself
// is parallel by default and byte-identical at any -parallel value. See
// DESIGN.md §9. With -exp it regenerates the paper's evaluation tables
// instead (see EXPERIMENTS.md).
//
// The trace verb runs one observed synthesis and exports it for
// chrome://tracing / Perfetto: pipeline phase spans in wall-clock time plus
// per-rank virtual-time timelines (MPI calls, computation regions, message
// edges) for the baseline run and the proxy replay. See DESIGN.md §10.
//
// The jobs verb inspects a `siesta serve -state-dir` journal offline: it
// replays the write-ahead log and prints each job's durable state (pending
// jobs are what the next serve incarnation will re-admit). See DESIGN.md
// §11.
//
// The upload verb streams an encoded trace to a serve or gateway instance
// over the chunked ingest API (POST /v1/traces): per-rank CRC-framed chunk
// streams, uploaded round-robin interleaved, with grammar inference running
// server-side while chunks arrive. The resulting proxy is byte-identical
// to a one-shot trace_base64 upload. See DESIGN.md §15.
//
// The inspect verb reads a trace written by -trace: its summary, one rank's
// events, a diff against a second trace, an OTF-style export, grammar stats.
//
// All verbs take -log-level (debug, info, warn, error) for structured
// log/slog diagnostics on stderr.
//
// The list of applications comes from the paper's Table 3; run with
// -list to enumerate them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"siesta/internal/apps"
	"siesta/internal/check"
	"siesta/internal/codegen"
	"siesta/internal/core"
	"siesta/internal/extrapolate"
	"siesta/internal/fault"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/obs"
	"siesta/internal/perfmodel"
	"siesta/internal/platform"
	"siesta/internal/proxy"
	"siesta/internal/trace"
	"siesta/internal/vtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "check" {
		runCheck(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "gateway" {
		runGateway(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		runWorker(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		runBench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "jobs" {
		runJobs(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "upload" {
		runUpload(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "inspect" {
		runInspect(os.Args[2:])
		return
	}
	appName := flag.String("app", "CG", "application to synthesize a proxy for")
	ranks := flag.Int("ranks", 8, "number of MPI ranks")
	iters := flag.Int("iters", 0, "iteration override (0 = application default)")
	scale := flag.Float64("scale", 1, "shrink factor (10 = Siesta-scaled)")
	platName := flag.String("platform", "A", "generation platform: A, B or C")
	implName := flag.String("impl", "openmpi", "MPI implementation: openmpi, mpich, mvapich")
	outC := flag.String("o", "", "write the generated C proxy-app to this file")
	outTrace := flag.String("trace", "", "write the encoded trace to this file")
	outProg := flag.String("prog", "", "write the encoded merged program to this file (input for `siesta check`)")
	report := flag.Bool("report", true, "print the fidelity report")
	list := flag.Bool("list", false, "list available applications and exit")
	extrap := flag.Int("extrapolate", 0, "re-target the proxy to this rank count (fully SPMD programs only)")
	seed := flag.Uint64("seed", 1, "random seed")
	faultSpec := flag.String("faults", "", `fault-injection plan applied to every run, e.g. "crash:rank=3@call=100;straggler:rank=1,factor=4"`)
	deadlineSpec := flag.String("deadline", "", "virtual-time budget per run (e.g. 30s); exceeding it aborts with a deadlock report")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole synthesis (0 = unlimited)")
	parallel := flag.Int("parallel", 0, "synthesis parallelism (0 = GOMAXPROCS, 1 = sequential; never changes the output)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	flag.Parse()

	if *list {
		for _, s := range apps.All() {
			fmt.Printf("%-10s %s\n", s.Name, s.Description)
		}
		return
	}

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta: %v\n", err)
		os.Exit(1)
	}
	if err := setupLogging(*logLevel); err != nil {
		die(err)
	}

	spec, err := apps.ByName(*appName)
	if err != nil {
		die(err)
	}
	plat, err := platform.ByName(*platName)
	if err != nil {
		die(err)
	}
	impl, err := netmodel.ByName(*implName)
	if err != nil {
		die(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: *ranks, Iters: *iters})
	if err != nil {
		die(err)
	}
	var plan *fault.Plan
	if *faultSpec != "" {
		if plan, err = fault.Parse(*faultSpec); err != nil {
			die(err)
		}
		if plan.Seed == 0 {
			plan.Seed = *seed
		}
	}
	var deadline vtime.Duration
	if *deadlineSpec != "" {
		if deadline, err = fault.ParseDeadline(*deadlineSpec); err != nil {
			die(err)
		}
	}

	opts := core.Options{
		Platform: plat, Impl: impl, Ranks: *ranks, Scale: *scale, Seed: *seed,
		Faults: plan, Deadline: deadline, Parallelism: *parallel,
	}
	// At debug verbosity, phase transitions are logged through a tracer
	// (timelines off — this verb only wants the span stream).
	if debugEnabled() {
		opts.Tracer = obs.New().WithoutTimelines()
		opts.Tracer.SetObserver(phaseLogger)
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = ctx
	}

	res, err := core.Synthesize(fn, opts)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			die(fmt.Errorf("synthesis exceeded the %v wall-clock budget: %w", *timeout, err))
		}
		die(err)
	}

	if *outTrace != "" {
		if err := os.WriteFile(*outTrace, res.Trace.Encode(), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("trace written to %s (%d bytes encoded, %d bytes raw equivalent)\n",
			*outTrace, len(res.Trace.Encode()), res.Trace.RawSize())
	}
	if *outProg != "" {
		if err := os.WriteFile(*outProg, res.Program.Encode(), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("encoded program written to %s (%d bytes)\n", *outProg, len(res.Program.Encode()))
	}
	if *outC != "" {
		if err := os.WriteFile(*outC, []byte(res.Generated.CSource()), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("generated C proxy-app written to %s\n", *outC)
	}

	if *report {
		printReport(res, *scale)
	}

	if *extrap > 0 {
		prog, err := extrapolate.Extrapolate(res.Program, *extrap)
		if err != nil {
			die(err)
		}
		gen, err := codegen.Generate(prog, codegen.Options{Platform: plat})
		if err != nil {
			die(err)
		}
		prox, err := proxy.New(gen).Run(mpi.Config{
			Platform: plat, Impl: impl, Seed: *seed + 2, NoiseSigma: 0.004, RunVariation: 0.02,
		})
		if err != nil {
			die(err)
		}
		// Compare against a real run at the new scale.
		fnBig, err := spec.Build(apps.Params{Ranks: *extrap, Iters: *iters})
		if err != nil {
			die(err)
		}
		w := mpi.NewWorld(mpi.Config{
			Platform: plat, Impl: impl, Size: *extrap,
			Seed: *seed + 3, NoiseSigma: 0.004, RunVariation: 0.02,
		})
		orig, err := w.Run(fnBig)
		if err != nil {
			die(err)
		}
		fmt.Printf("extrapolated to %d ranks (weak-scaling: per-rank behaviour preserved):\n", *extrap)
		fmt.Printf("  proxy %.6gs vs original-at-%d-ranks %.6gs (error %.2f%%)\n",
			float64(prox.ExecTime), *extrap, float64(orig.ExecTime),
			core.TimeError(float64(prox.ExecTime), float64(orig.ExecTime))*100)
	}
}

// runCheck implements the `siesta check` verb: it lints an encoded program
// and/or a raw trace from disk with the static verifier and exits non-zero
// when any error-severity diagnostic is found.
func runCheck(args []string) {
	fs := flag.NewFlagSet("siesta check", flag.ExitOnError)
	progFile := fs.String("prog", "", "encoded merged program (SIESTA-PROG1) to verify")
	traceFile := fs.String("trace", "", "encoded trace to merge and verify")
	exact := fs.Bool("exact-bytes", false, "require matched send/recv pairs to carry identical byte counts")
	absolute := fs.Bool("absolute-ranks", false, "partner fields carry comm-local absolute ranks (trace recorded with AbsoluteRanks)")
	maxDiags := fs.Int("max-diags", 0, "diagnostic cap (0 = default 100)")
	asJSON := fs.Bool("json", false, "emit structured reports as JSON instead of the table")
	fs.Parse(args)

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "siesta check: %v\n", err)
		os.Exit(1)
	}
	if *progFile == "" && *traceFile == "" {
		die(fmt.Errorf("need -prog and/or -trace"))
	}
	opts := check.Options{ExactBytes: *exact, AbsoluteRanks: *absolute, MaxDiagnostics: *maxDiags}

	// checkResult pairs one input with its report; -json emits the list so
	// the diagnostic shape matches the "check" object inside `siesta
	// analyze -json` output.
	type checkResult struct {
		Input  string        `json:"input"`
		Report *check.Report `json:"report"`
	}
	var results []checkResult

	failed := false
	verify := func(label string, p *merge.Program) {
		rep, err := check.Verify(p, opts)
		if err != nil {
			die(fmt.Errorf("%s: %w", label, err))
		}
		if *asJSON {
			results = append(results, checkResult{Input: label, Report: rep})
		} else {
			fmt.Printf("%s: %s\n", label, rep.Summary())
			for _, d := range rep.Diags {
				fmt.Println("  " + d.String())
			}
		}
		failed = failed || rep.HasErrors()
	}

	if *progFile != "" {
		data, err := os.ReadFile(*progFile)
		if err != nil {
			die(err)
		}
		p, err := merge.Decode(data)
		if err != nil {
			die(err)
		}
		verify(*progFile, p)
	}
	if *traceFile != "" {
		data, err := os.ReadFile(*traceFile)
		if err != nil {
			die(err)
		}
		tr, err := trace.Decode(data)
		if err != nil {
			die(err)
		}
		p, err := merge.Build(tr, merge.Options{})
		if err != nil {
			die(err)
		}
		verify(*traceFile, p)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			die(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printReport(res *core.Result, scale float64) {
	st := res.Program.Stats()
	fmt.Printf("=== synthesis report: %d ranks on platform %s / %s ===\n",
		res.Opts.Ranks, res.Opts.Platform.Name, res.Opts.Impl.Name)
	fmt.Printf("trace:   %d events, raw size %d bytes, tracing overhead %.2f%%\n",
		res.Trace.TotalEvents(), res.Trace.RawSize(), res.Overhead*100)
	fmt.Printf("grammar: %d terminals, %d computation clusters, %d rules, %d main group(s), size_C %d bytes\n",
		st.Terminals, st.Clusters, st.Rules, st.MainGroups, res.Generated.SizeC)

	prox, err := res.RunProxy(nil, nil)
	if err != nil {
		fmt.Printf("proxy replay failed: %v\n", err)
		return
	}
	origT := float64(res.BaselineRun.ExecTime)
	proxT := float64(prox.ExecTime)
	fmt.Printf("time:    original %.6gs, proxy %.6gs", origT, proxT)
	if scale > 1 {
		fmt.Printf(", reported (×%.0f) %.6gs", scale, float64(res.Proxy.ReportedTime(prox)))
		fmt.Printf(", time error %.2f%%\n",
			core.TimeError(float64(res.Proxy.ReportedTime(prox)), origT)*100)
	} else {
		fmt.Printf(", time error %.2f%%\n", core.TimeError(proxT, origT)*100)
	}
	comp := prox
	if scale > 1 {
		comp = core.ScaleBack(prox, scale)
	}
	fmt.Printf("error:   mean relative replay error %.2f%% across %d metrics and %d ranks\n",
		core.ReplayError(res.BaselineRun, comp)*100, int(perfmodel.NumMetrics)+1, res.Opts.Ranks)

	o, p := res.BaselineRun.TotalCompute(), comp.TotalCompute()
	fmt.Printf("rates:   IPC %.3f→%.3f  CMR %.4f→%.4f  BMR %.4f→%.4f\n",
		o.IPC(), p.IPC(), o.CMR(), p.CMR(), o.BMR(), p.BMR())
}
