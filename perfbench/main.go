// Command perfbench is Siesta's benchmark: it runs one named workload from
// a seed, checks every output, and prints the end-to-end metrics (untraced
// run) or the per-layer ledger (traced run) as one JSON line at the end.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload synth-apps --seed 1 --seconds 15 --trace 0
//
// run.py builds this module into .bench_build/ and runs it with the same
// arguments. See perfbench/README.md for the metrics and workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload describes one benchmark workload.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients; slots the number of
	// synthesis slots the system under test runs jobs on.
	clients, slots int
	// prepare records the workload's inputs and references (untimed, not
	// part of setup_s) and returns the fixture that runs its jobs.
	prepare func(seed uint64, log io.Writer) (fixture, error)
}

// fixture runs one prepared workload.
type fixture interface {
	// start brings the system under test up in process.
	start() error
	// job runs one request; jt is non-nil in the traced run.
	job(req request, jt *jobTimer) jobResult
	// panelSize is the number of distinct inputs requests are dealt from.
	panelSize() int
	// beginTraced and finishTraced bracket the traced run; finishTraced
	// adds run-level layer counts (e.g. memo statistics) to its tally.
	beginTraced()
	finishTraced(t tally)
	// note is a one-line summary of workload-specific counts, or "".
	note() string
	// stop shuts the system down and releases its resources.
	stop() error
}

// jobResult is the outcome of one job.
type jobResult struct {
	entry   int
	latency time.Duration
	events  int
	sizeC   int
	fid     *fidelity // of the job's proxy, on success
	err     error     // failed, refused, or failed the output check
	ledger  tally     // traced run only
}

// fidelity is one proxy's Table 3 figures.
type fidelity struct {
	ReplayErr, TimeErr, Overhead float64 // fractions
}

// fidelitySummary holds the means the end-to-end fidelity metrics report.
type fidelitySummary struct {
	ReplayErrPct, TimeErrPct, OverheadPct, SizeC float64
	Entries                                      int
}

// replayErrBound is the Table 3 replay-error bound the experiments suite
// enforces at full ladders (internal/experiments TestFullNumbers).
const replayErrBound = 0.10

var workloads = []*workload{synthApps, serveStream, serveOneshot}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// setupProbes is how many times a run sets the system up for setup_s.
const setupProbes = 25

// benchDir holds the benchmark's run outputs (spans, temp files), relative
// to the working directory, which is the repository checkout.
const benchDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: synth-apps, serve-stream or serve-oneshot")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed region in seconds")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: untraced then traced run, per-layer metrics")
	probe := fs.String("probe-setup", "", "set up the named workload's system, print ready, and wait for standard input to close")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe != "" {
		if err := runProbe(*probe, os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: probe: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkCapacity refuses a configuration with more clients or synthesis
// slots than the machine has processors: the closed loop would measure
// time-slicing, not the system.
func checkCapacity(w *workload, nproc int) error {
	if w.clients > nproc || w.slots > nproc {
		return fmt.Errorf("%d clients and %d synthesis slots need %d processors, have %d",
			w.clients, w.slots, max(w.clients, w.slots), nproc)
	}
	return nil
}

func runWorkload(w *workload, seed uint64, d time.Duration, traced bool, out io.Writer) (*result, error) {
	nproc := runtime.NumCPU()
	fmt.Fprintf(out, "workload %s seed %d seconds %.0f traced %t: %s\n", w.name, seed, d.Seconds(), traced, w.why)
	fmt.Fprintf(out, "environment: nproc %d GOMAXPROCS %d %s %s/%s; %d clients, %d synthesis slots\n",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, w.clients, w.slots)
	if err := checkCapacity(w, nproc); err != nil {
		return nil, err
	}
	// Spill files and any other temp files stay inside the checkout.
	tmp, err := filepath.Abs(filepath.Join(benchDir, "tmp"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	os.Setenv("TMPDIR", tmp)

	setup, err := measureSetup(w.name, setupProbes)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(out, "setup: median %.4f s over %d cold starts (exec to first job admissible)\n",
		medianOf(setup), len(setup))

	t0 := time.Now()
	fx, err := w.prepare(seed, out)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	fmt.Fprintf(out, "preparation (inputs and references, not in setup_s): %.2f s\n", time.Since(t0).Seconds())

	t0 = time.Now()
	if err := fx.start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	fmt.Fprintf(out, "in-process system start: %.4f s\n", time.Since(t0).Seconds())

	res := &result{}
	loopErr := func() error {
		plain := closedLoop(fx, w, seed, d, nil)
		report(out, "untraced", plain)
		if n := fx.note(); n != "" {
			fmt.Fprintln(out, n)
		}
		res.Attempted += len(plain.results)
		res.Failed += plain.failed()
		if !traced {
			fid, err := entryMeans(plain.results)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "fidelity over %d distinct inputs: replay error %.4f%%, time error %.4f%%, tracing overhead %.4f%%, size_C %.1f B\n",
				fid.Entries, fid.ReplayErrPct, fid.TimeErrPct, fid.OverheadPct, fid.SizeC)
			res.Metrics = endToEnd(medianOf(setup), plain, fid)
			return nil
		}
		rec := newSpanRecorder()
		fx.beginTraced()
		tr := closedLoop(fx, w, seed, d, rec)
		report(out, "traced", tr)
		res.Attempted += len(tr.results)
		res.Failed += tr.failed()
		t := tally{}
		for _, r := range tr.results {
			if r.ledger != nil {
				t.merge(r.ledger)
			}
		}
		fx.finishTraced(t)
		pu, pt := plain.latencies(), tr.latencies()
		fmt.Fprintf(out, "tracing overhead of the traced run: job_p50 %+.2f%%, events_per_s %+.2f%%\n",
			100*(summarize(pt).P50/summarize(pu).P50-1), 100*(tr.eventsPerS()/plain.eventsPerS()-1))
		printLedger(out, w.name, t)
		printCrossCheck(out, t)
		path := filepath.Join(benchDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := rec.write(path); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
		res.Metrics = layerValues(t)
		return nil
	}()
	if err := fx.stop(); err != nil && loopErr == nil {
		loopErr = fmt.Errorf("stop: %w", err)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	if res.Attempted == 0 {
		return nil, errors.New("no job completed")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd assembles the untraced run's metrics.
func endToEnd(setup float64, l *loopResult, fid fidelitySummary) map[string]metric {
	lat := summarize(l.latencies())
	return map[string]metric{
		"setup_s":            {setup, "s"},
		"job_p50_ms":         {lat.P50, "ms"},
		"job_tail_ms":        {lat.Tail, "ms"},
		"events_per_s":       {l.eventsPerS(), "events/s"},
		"peak_heap_mb":       {l.peakHeapMB, "MiB"},
		"replay_err_pct":     {fid.ReplayErrPct, "%"},
		"time_err_pct":       {fid.TimeErrPct, "%"},
		"trace_overhead_pct": {fid.OverheadPct, "%"},
		"size_c_bytes":       {fid.SizeC, "B"},
	}
}

// report prints a loop's latency summary, failures and throughput.
func report(out io.Writer, label string, l *loopResult) {
	lat := summarize(l.latencies())
	tailNote := ""
	if !lat.Enough {
		tailNote = fmt.Sprintf(" (fewer than %d samples beyond any percentile: maximum)", tailBeyond+1)
	}
	fmt.Fprintf(out, "%s run: %d jobs attempted, %d failed (fail_frac %.4f) in %.2f s; job p50 %.3f ms, p%.2f %.3f ms over %d samples%s; %.1f events/s; peak live heap %.2f MiB\n",
		label, len(l.results), l.failed(), ratio(float64(l.failed()), float64(len(l.results))),
		l.wall.Seconds(), lat.P50, lat.Percentile, lat.Tail, lat.N, tailNote, l.eventsPerS(), l.peakHeapMB)
	seen := map[string]bool{}
	var msgs []string
	for _, r := range l.results {
		if r.err != nil && !seen[r.err.Error()] {
			seen[r.err.Error()] = true
			msgs = append(msgs, r.err.Error())
		}
	}
	sort.Strings(msgs)
	for i, m := range msgs {
		if i == 5 {
			fmt.Fprintf(out, "  ... %d more distinct failures\n", len(msgs)-i)
			break
		}
		fmt.Fprintf(out, "  failure: %s\n", m)
	}
}
