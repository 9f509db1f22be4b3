package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/obs"
	"siesta/internal/perfmodel"
	"siesta/internal/qp"
)

// The computation-proxy searches start as soon as the program exists and
// run on the job's idle workers beside the check gate (DESIGN.md §9). These
// tests pin what that must not change — every artifact and every memo
// count, at any parallelism — and that no exit path leaves a search
// goroutine behind.

// mgApp builds the MG app: several clusters, some slow to solve.
func mgApp(t *testing.T, ranks int) func(*mpi.Rank) {
	t.Helper()
	spec, err := apps.ByName("MG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// searchOutcome is what one synthesis shows of its searches.
type searchOutcome struct {
	src          string
	combos       []blocks.Combination
	check        string
	hits, misses int64
	memo         []byte // the post-search checkpoint's memo snapshot
}

func outcome(t *testing.T, res *core.Result, memo *blocks.Memo, ck *memCheckpointer) searchOutcome {
	t.Helper()
	o := searchOutcome{
		src:    res.Generated.CSource(),
		combos: res.Generated.Combos,
		check:  res.Check.Summary(),
	}
	o.hits, o.misses = memo.Stats()
	if ck != nil {
		if cp := ck.at(core.PhaseSearch); cp != nil {
			o.memo = cp.MemoBytes
		}
	}
	return o
}

func sameOutcome(t *testing.T, what string, got, want searchOutcome) {
	t.Helper()
	if got.src != want.src {
		t.Errorf("%s: C source differs", what)
	}
	if !reflect.DeepEqual(got.combos, want.combos) {
		t.Errorf("%s: Generated.Combos differ", what)
	}
	if got.check != want.check {
		t.Errorf("%s: check summary %q, want %q", what, got.check, want.check)
	}
	if got.hits != want.hits || got.misses != want.misses {
		t.Errorf("%s: memo %d hits / %d misses, want %d / %d", what, got.hits, got.misses, want.hits, want.misses)
	}
	if !bytes.Equal(got.memo, want.memo) {
		t.Errorf("%s: post-search checkpoint's memo snapshot differs", what)
	}
}

// TestOverlappedSearchMatchesSerial: at Parallelism 1, 2 and 4, Synthesize
// and SynthesizeTrace give the same C source, combinations, check summary,
// memo hit and miss counts (one lookup per cluster) and post-search memo
// snapshot, scaled or not; so does a run resumed from the post-search
// checkpoint, whose every lookup hits.
func TestOverlappedSearchMatchesSerial(t *testing.T) {
	fn := mgApp(t, 8)
	for _, scale := range []float64{1, 10} {
		var ref, refTrace searchOutcome
		var refRes *core.Result
		var refCk *memCheckpointer
		for _, par := range []int{1, 2, 4} {
			memo, ck := blocks.NewMemo(0), &memCheckpointer{}
			res, err := core.Synthesize(fn, core.Options{
				Ranks: 8, Seed: 1, Scale: scale, Parallelism: par, SearchMemo: memo, Checkpointer: ck,
			})
			if err != nil {
				t.Fatalf("scale %g Parallelism %d: %v", scale, par, err)
			}
			got := outcome(t, res, memo, ck)
			if n := int64(len(res.Program.Clusters)); got.hits+got.misses != n {
				t.Errorf("scale %g Parallelism %d: %d memo lookups for %d clusters", scale, par, got.hits+got.misses, n)
			}
			if par == 1 {
				ref, refRes, refCk = got, res, ck
				if len(res.Program.Clusters) < 2 {
					t.Fatalf("MG/8 has %d clusters; the test needs several", len(res.Program.Clusters))
				}
			} else {
				sameOutcome(t, fmt.Sprintf("Synthesize at Parallelism %d", par), got, ref)
			}

			memo = blocks.NewMemo(0)
			tres, err := core.SynthesizeTrace(refRes.Trace, core.Options{
				Seed: 1, Scale: scale, Parallelism: par, SearchMemo: memo,
			})
			if err != nil {
				t.Fatalf("trace scale %g Parallelism %d: %v", scale, par, err)
			}
			if got := outcome(t, tres, memo, nil); par == 1 {
				refTrace = got
			} else {
				sameOutcome(t, fmt.Sprintf("SynthesizeTrace at Parallelism %d", par), got, refTrace)
			}

			memo = blocks.NewMemo(0)
			rres, err := core.Synthesize(fn, core.Options{
				Ranks: 8, Seed: 1, Scale: scale, Parallelism: par, SearchMemo: memo,
				Resume: refCk.at(core.PhaseSearch),
			})
			if err != nil {
				t.Fatalf("resume scale %g Parallelism %d: %v", scale, par, err)
			}
			if rres.ResumedFrom != core.PhaseSearch {
				t.Fatalf("resumed from %q, want %q", rres.ResumedFrom, core.PhaseSearch)
			}
			resumed := outcome(t, rres, memo, nil)
			want := ref
			want.hits, want.misses, want.memo = int64(len(rres.Program.Clusters)), 0, nil
			sameOutcome(t, fmt.Sprintf("resume at Parallelism %d", par), resumed, want)
		}
	}
}

// programSession is an ingest session that hands over a fixed program.
type programSession struct{ p *merge.Program }

func (s programSession) NumRanks() int                  { return s.p.NumRanks }
func (s programSession) Build() (*merge.Program, error) { return s.p, nil }
func (s programSession) Close() error                   { return nil }

// stalledTarget is a cluster target whose QP search runs its whole
// iteration budget (about 0.1 s) and then fails: a search that is surely
// still running when the gate returns, and that ends in an error.
var stalledTarget = perfmodel.Counters{2.9898713246166587e+09, 1.1070641992401572e+15,
	6.946969905495136e+09, -0.20668467997535464, 1.0299834375037915e+19, 0.19339868456176704}

// quickTarget is a cluster target whose search takes about 0.1 ms.
var quickTarget = perfmodel.Counters{1.3125e+06, 467904.1583042587,
	499971.9742737971, 7801.935902867139, 187250.4648784749, 5626.423513003509}

// withStalledCluster returns a copy of prog whose cluster 0 is
// stalledTarget and every other cluster quickTarget, so the worker that
// claims cluster 0 is the last to finish by far.
func withStalledCluster(t *testing.T, prog *merge.Program) *merge.Program {
	t.Helper()
	p, err := merge.Decode(prog.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range p.Clusters {
		cl.Sum, cl.N = quickTarget, 1
		if i == 0 {
			cl.Sum = stalledTarget
		}
	}
	return p
}

// searchGoroutines counts the live goroutines StartSearch started,
// whether they are solving or not yet scheduled.
func searchGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "codegen.StartSearch") {
			n++
		}
	}
	return n
}

// TestSearchWorkersJoinedOnEveryExit: whether the gate fails, a search
// fails, the context is canceled during the check, or the run resumes,
// the entry returns only once every search worker has finished — none is
// left running at return, and the goroutine count comes back.
func TestSearchWorkersJoinedOnEveryExit(t *testing.T) {
	fn := mgApp(t, 8)
	ck := &memCheckpointer{}
	base, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 1, Parallelism: 1,
		SearchMemo: blocks.NewMemo(0), Checkpointer: ck})
	if err != nil {
		t.Fatal(err)
	}
	stalled := withStalledCluster(t, base.Program)
	// A gate failure: one point-to-point terminal's tag changes, so its
	// messages match nothing.
	broken := withStalledCluster(t, base.Program)
	for _, r := range broken.Terminals {
		if r.Func == mpicall.Send || r.Func == mpicall.Isend || r.Func == mpicall.Sendrecv {
			r.Tag += 1000
			break
		}
	}
	ingest := func(p *merge.Program, opts core.Options) error {
		opts.Parallelism, opts.SearchMemo = 4, blocks.NewMemo(0)
		_, err := core.SynthesizeIngest(programSession{p}, opts)
		return err
	}
	cases := []struct {
		name string
		run  func() error
		want func(error) bool
	}{
		{"gate fails", func() error { return ingest(broken, core.Options{}) }, func(err error) bool {
			var ve *core.VerifyError
			return errors.As(err, &ve)
		}},
		{"search fails", func() error { return ingest(stalled, core.Options{}) }, func(err error) bool {
			return errors.Is(err, qp.ErrNoConverge)
		}},
		{"canceled during check", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tracer := obs.New()
			// The cancellation lands as the check ends: the run can only
			// notice it at the next phase boundary, before the join.
			tracer.SetObserver(func(ev obs.PhaseEvent) {
				if ev.Name == "check" && ev.End {
					cancel()
				}
			})
			return ingest(stalled, core.Options{Context: ctx, Tracer: tracer})
		}, func(err error) bool { return errors.Is(err, core.ErrCanceled) }},
		{"resumed after merge", func() error {
			_, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 1, Parallelism: 4,
				SearchMemo: blocks.NewMemo(0), Resume: ck.at(core.PhaseMerge)})
			return err
		}, func(err error) bool { return err == nil }},
		{"resumed after search", func() error {
			_, err := core.Synthesize(fn, core.Options{Ranks: 8, Seed: 1, Parallelism: 4,
				SearchMemo: blocks.NewMemo(0), Resume: ck.at(core.PhaseSearch)})
			return err
		}, func(err error) bool { return err == nil }},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		if err := tc.run(); !tc.want(err) {
			t.Errorf("%s: returned %v", tc.name, err)
		}
		// A joined worker has signaled its end; it may take a moment to
		// exit, far less than the stalled solve a worker left running
		// would still take.
		for settle := time.Now().Add(20 * time.Millisecond); searchGoroutines() != 0; {
			if time.Now().After(settle) {
				t.Errorf("%s: %d search workers still running after return", tc.name, searchGoroutines())
				break
			}
			time.Sleep(time.Millisecond)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines after return, %d before", tc.name, runtime.NumGoroutine(), before)
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
