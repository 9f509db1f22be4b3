package core

import (
	"strings"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/platform"
)

func synthesizeApp(t *testing.T, name string, ranks int, opts Options) *Result {
	t.Helper()
	spec, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 3, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	opts.Ranks = ranks
	res, err := Synthesize(fn, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSynthesizeEndToEnd(t *testing.T) {
	res := synthesizeApp(t, "CG", 8, Options{Seed: 77})
	if res.Trace == nil || res.Program == nil || res.Generated == nil || res.Proxy == nil {
		t.Fatal("incomplete result")
	}
	if res.Overhead < 0 || res.Overhead > 0.15 {
		t.Errorf("tracing overhead %.2f%% out of the paper's range", res.Overhead*100)
	}
	prox, err := res.RunProxy(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := ReplayError(res.BaselineRun, prox); e > 0.12 {
		t.Errorf("replay error %.2f%% too large", e*100)
	}
}

func TestSynthesizeRunsCheckGate(t *testing.T) {
	res := synthesizeApp(t, "CG", 8, Options{Seed: 77})
	if res.Check == nil {
		t.Fatal("gate should attach a verification report")
	}
	if len(res.Check.Diags) != 0 {
		t.Errorf("merged CG program should verify clean:\n%s", res.Check)
	}
	if res.Generated.Check == nil {
		t.Error("generated artifact should carry the verification report")
	}
	if !strings.Contains(res.Generated.CSource(), "static check: clean") {
		t.Error("C source header should be stamped with the verification summary")
	}
}

func TestSynthesizeValidatesRanks(t *testing.T) {
	if _, err := Synthesize(func(*mpi.Rank) {}, Options{}); err == nil {
		t.Fatal("missing rank count should error")
	}
}

func TestSynthesizeScaled(t *testing.T) {
	res := synthesizeApp(t, "CG", 8, Options{Seed: 77, Scale: 10})
	prox, err := res.RunProxy(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if float64(prox.ExecTime) > 0.5*float64(res.BaselineRun.ExecTime) {
		t.Errorf("scaled proxy (%v) should run much faster than original (%v)",
			prox.ExecTime, res.BaselineRun.ExecTime)
	}
	reported := float64(res.Proxy.ReportedTime(prox))
	if e := TimeError(reported, float64(res.BaselineRun.ExecTime)); e > 0.35 {
		t.Errorf("Siesta-scaled reported-time error %.1f%%", e*100)
	}
	back := ScaleBack(prox, res.Generated.Scale)
	if float64(back.ExecTime) <= float64(prox.ExecTime) {
		t.Error("ScaleBack should inflate times")
	}
}

func TestProxyPortability(t *testing.T) {
	// Fig. 9's mechanism end-to-end: generate on A, run on B; the proxy
	// should track the original's slowdown.
	spec, _ := apps.ByName("CG")
	fn, _ := spec.Build(apps.Params{Ranks: 8, Iters: 3, WorkScale: 0.05})
	res := synthesizeApp(t, "CG", 8, Options{Seed: 77})
	wB := mpi.NewWorld(mpi.Config{Platform: platform.B, Size: 8, NoiseSigma: 0.004, Seed: 77})
	origB, err := wB.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	proxB, err := res.RunProxy(platform.B, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := TimeError(float64(proxB.ExecTime), float64(origB.ExecTime)); e > 0.35 {
		t.Errorf("A→B proxy time error %.1f%% too large (proxy %v, orig %v)",
			e*100, proxB.ExecTime, origB.ExecTime)
	}
}

func TestProxyImplRobustness(t *testing.T) {
	// Fig. 7's mechanism: generated under openmpi, run under mpich.
	spec, _ := apps.ByName("MG")
	fn, _ := spec.Build(apps.Params{Ranks: 8, Iters: 3, WorkScale: 0.05})
	res := synthesizeApp(t, "MG", 8, Options{Seed: 77})
	wM := mpi.NewWorld(mpi.Config{Impl: netmodel.MPICH, Size: 8, NoiseSigma: 0.004, Seed: 77})
	origM, err := wM.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	proxM, err := res.RunProxy(nil, netmodel.MPICH)
	if err != nil {
		t.Fatal(err)
	}
	if e := TimeError(float64(proxM.ExecTime), float64(origM.ExecTime)); e > 0.25 {
		t.Errorf("openmpi→mpich proxy time error %.1f%%", e*100)
	}
}

func TestGeneratedCSourceAvailable(t *testing.T) {
	res := synthesizeApp(t, "IS", 8, Options{Seed: 77})
	src := res.Generated.CSource()
	if !strings.Contains(src, "MPI_Init") || !strings.Contains(src, "MPI_Alltoallv") {
		t.Error("C source missing expected content")
	}
}

func TestTable3ShapeForOneApp(t *testing.T) {
	res := synthesizeApp(t, "MG", 8, Options{Seed: 77})
	raw := res.Trace.RawSize()
	sizeC := res.Generated.SizeC
	if sizeC*5 > raw {
		t.Errorf("size_C (%d) should be far below raw trace size (%d)", sizeC, raw)
	}
}

func TestReplayErrorMetric(t *testing.T) {
	res := synthesizeApp(t, "CG", 8, Options{Seed: 77})
	if e := ReplayError(res.BaselineRun, res.BaselineRun); e != 0 {
		t.Errorf("self error %v", e)
	}
	other := &mpi.RunResult{}
	if e := ReplayError(res.BaselineRun, other); e != 1 {
		t.Errorf("mismatched shape should be 1, got %v", e)
	}
}

func TestRelDiff(t *testing.T) {
	if relDiff(0, 0) != 0 || relDiff(1, 0) != 1 {
		t.Error("zero handling wrong")
	}
	if relDiff(110, 100) != 0.1 {
		t.Error("basic ratio wrong")
	}
}
