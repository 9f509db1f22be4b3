package codegen

import (
	"strings"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/platform"
	"siesta/internal/trace"
)

// buildProgram traces CG at small scale and merges it.
func buildProgram(t *testing.T) (*merge.Program, *trace.Trace) {
	t.Helper()
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 3, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(8, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: 8, Interceptor: rec, NoiseSigma: 0.004, Seed: 11})
	if _, err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	prog, err := merge.Build(tr, merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, tr
}

func TestGenerateUnscaled(t *testing.T) {
	prog, _ := buildProgram(t)
	gen, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Combos) != len(prog.Clusters) {
		t.Fatalf("one combination per cluster expected: %d vs %d", len(gen.Combos), len(prog.Clusters))
	}
	for i, c := range gen.Combos {
		if !c.Valid() {
			t.Errorf("combo %d violates constraints: %+v", i, c)
		}
		if c.Total() == 0 {
			t.Errorf("combo %d is empty", i)
		}
	}
	if gen.SizeC <= 0 {
		t.Error("SizeC must be positive")
	}
	if gen.Prog != prog {
		t.Error("unscaled generation should not clone the program")
	}
	if gen.Scale != 1 {
		t.Errorf("scale defaulted to %v", gen.Scale)
	}
}

// With no report from the caller, Generate verifies the program itself
// for the C header's stamp.
func TestGenerateSelfVerifiesWithoutCheck(t *testing.T) {
	prog, _ := buildProgram(t)
	gen, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Check == nil {
		t.Fatal("codegen should self-verify when no report is passed")
	}
	if !strings.Contains(gen.CSource(), "static check: clean") {
		t.Errorf("C source header should carry the self-verification summary %q", gen.Check.Summary())
	}
}

func TestGenerateScaledShrinksComputation(t *testing.T) {
	prog, tr := buildProgram(t)
	gen1, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen10, err := Generate(prog, Options{Scale: 10, CommSamples: CollectCommSamples(tr)})
	if err != nil {
		t.Fatal(err)
	}
	p := platform.A
	for i := range gen1.Combos {
		t1 := gen1.Combos[i].Seconds(p)
		t10 := gen10.Combos[i].Seconds(p)
		if t10 >= t1 {
			t.Errorf("cluster %d: scaled combo (%.2e s) not smaller than unscaled (%.2e s)", i, t10, t1)
		}
		ratio := t1 / t10
		if ratio < 5 || ratio > 20 {
			t.Errorf("cluster %d: shrink ratio %.1f, want ≈10", i, ratio)
		}
	}
}

func TestGenerateScaledShrinksCommunication(t *testing.T) {
	prog, tr := buildProgram(t)
	gen, err := Generate(prog, Options{Scale: 10, CommSamples: CollectCommSamples(tr)})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Prog == prog {
		t.Fatal("scaled generation must clone the program")
	}
	shrunk := false
	for i, r := range gen.Prog.Terminals {
		orig := prog.Terminals[i]
		if r.Func != orig.Func {
			t.Fatal("terminal order changed")
		}
		if r.Func.Desc().Shrunk && orig.Bytes > 1024 && r.Bytes < orig.Bytes {
			shrunk = true
		}
		if r.Bytes > orig.Bytes {
			t.Errorf("terminal %d grew: %d -> %d", i, orig.Bytes, r.Bytes)
		}
	}
	if !shrunk {
		t.Error("no blocking communication volume was shrunk")
	}
}

func TestRegression(t *testing.T) {
	samples := []CommSample{
		{Func: mpicall.Send, Bytes: 1000, Dur: 2e-6},
		{Func: mpicall.Send, Bytes: 2000, Dur: 3e-6},
		{Func: mpicall.Send, Bytes: 4000, Dur: 5e-6},
	}
	regs := fitRegressions(samples)
	rg := regs[mpicall.Send]
	if rg.N != 3 {
		t.Fatalf("N = %d", rg.N)
	}
	// Exact fit: T = 1e-6 + 1e-9·bytes.
	if diff := rg.Predict(3000) - 4e-6; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Predict(3000) = %v", rg.Predict(3000))
	}
	// Shrinking by 2: predicted time halves.
	nb := rg.ShrinkBytes(4000, 2)
	if d := rg.Predict(nb) - rg.Predict(4000)/2; d > 1e-7 || d < -1e-7 {
		t.Errorf("shrunk volume %d mispredicts", nb)
	}
	// Degenerate fits fall back to identity.
	one := fitRegressions(samples[:1])[mpicall.Send]
	if one.ShrinkBytes(500, 10) != 500 {
		t.Error("single-sample regression must not shrink")
	}
}

// Shrinking must never turn a real message into an empty one: zero-byte
// transfers are a different message class (eager matching, verification
// semantics), so the clamp floor is 1 byte for any nonzero original.
func TestShrinkBytesNeverReachesZero(t *testing.T) {
	// Steep fit with zero intercept: target volume for large scales
	// rounds to 0 without the clamp.
	rg := Regression{Alpha: 0, Beta: 1e-9, N: 3}
	for _, tc := range []struct {
		bytes int
		scale float64
	}{
		{1, 10}, {4, 1000}, {100, 1e6}, {1 << 20, 1e12},
	} {
		if got := rg.ShrinkBytes(tc.bytes, tc.scale); got < 1 {
			t.Errorf("ShrinkBytes(%d, %g) = %d, want >= 1", tc.bytes, tc.scale, got)
		}
	}
	if got := rg.ShrinkBytes(0, 10); got != 0 {
		t.Errorf("ShrinkBytes(0, 10) = %d, want 0 (empty messages stay empty)", got)
	}
	// Nonzero intercept makes the inverted target negative: still 1.
	rg = Regression{Alpha: 5e-6, Beta: 1e-9, N: 3}
	if got := rg.ShrinkBytes(1000, 100); got < 1 {
		t.Errorf("negative inverted volume: got %d, want >= 1", got)
	}
}

func TestShrinkProgramKeepsNonzeroCounts(t *testing.T) {
	prog, tr := buildProgram(t)
	// Plant a v-collective with small nonzero per-destination counts so an
	// aggressive shrink would round them to zero.
	prog.Terminals = append(prog.Terminals, &trace.Record{
		Func: mpicall.Alltoallv, Bytes: 4096, Counts: []int{1, 1, 4094},
	})
	gen, err := Generate(prog, Options{Scale: 1e6, CommSamples: CollectCommSamples(tr)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range gen.Prog.Terminals {
		orig := prog.Terminals[i]
		if orig.Bytes > 0 && r.Bytes < 1 {
			t.Errorf("terminal %d (%s): %d bytes shrunk to %d", i, r.Func, orig.Bytes, r.Bytes)
		}
		for j := range r.Counts {
			if orig.Counts[j] > 0 && r.Counts[j] < 1 {
				t.Errorf("terminal %d (%s): count[%d] %d shrunk to %d",
					i, r.Func, j, orig.Counts[j], r.Counts[j])
			}
		}
	}
}

func TestCSourceStructure(t *testing.T) {
	prog, _ := buildProgram(t)
	gen, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := gen.CSource()
	for _, want := range []string{
		"#include <mpi.h>",
		"MPI_Init", "MPI_Finalize",
		"MPI_Comm_rank", "comm_pool[0] = MPI_COMM_WORLD",
		"MPI_Sendrecv", "MPI_Allreduce",
		"compute_0", "static void T0", "int main",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C lacks %q", want)
		}
	}
	// Balanced braces: a cheap well-formedness check.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces in generated C")
	}
	// One function per terminal and per rule.
	for id := range prog.Terminals {
		if !strings.Contains(src, "static void T"+itoa(id)+"(void)") {
			t.Errorf("terminal %d has no function", id)
		}
	}
	for id := range prog.Rules {
		if !strings.Contains(src, "static void R"+itoa(id)+"(void)") {
			t.Errorf("rule %d has no function", id)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCSourceRankBranches(t *testing.T) {
	// An app with rank-dependent structure (master/worker) must emit rank
	// branch statements.
	rec := trace.NewRecorder(4, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: 4, Interceptor: rec, Seed: 1})
	_, err := w.Run(func(r *mpi.Rank) {
		if r.Rank() == 0 {
			for s := 1; s < 4; s++ {
				r.Recv(r.World(), s, 0)
			}
		} else {
			r.Send(r.World(), 0, 0, 64)
		}
		r.Barrier(r.World())
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := merge.Build(rec.Trace("A", "openmpi"), merge.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := gen.CSource()
	if !strings.Contains(src, "rank ==") && !strings.Contains(src, "rank >=") && !strings.Contains(src, "rank <=") {
		t.Error("rank-dependent program should generate rank conditions")
	}
}

func TestCollectCommSamples(t *testing.T) {
	_, tr := buildProgram(t)
	samples := CollectCommSamples(tr)
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	for _, s := range samples {
		if !s.Func.Desc().Sampled {
			t.Errorf("unsampled function sampled: %s", s.Func)
		}
		if s.Dur < 0 {
			t.Error("negative duration")
		}
	}
}

func TestSizeCIncludesCombos(t *testing.T) {
	prog, _ := buildProgram(t)
	gen, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen.SizeC <= len(prog.Encode()) {
		t.Error("SizeC should include the computation block table")
	}
}

// TestShrinkSetPinned pins, call by call over the whole table, which calls
// communication shrinking rewrites and which feed its regression. MPI_Isend
// is rewritten but not sampled: its duration is software overhead, while
// its transfer exposes at Wait.
func TestShrinkSetPinned(t *testing.T) {
	rewritten := map[mpicall.Func]bool{
		mpicall.Send: true, mpicall.Recv: true, mpicall.Sendrecv: true, mpicall.Isend: true,
		mpicall.Bcast: true, mpicall.Reduce: true, mpicall.Allreduce: true,
		mpicall.Gather: true, mpicall.Gatherv: true, mpicall.Scatter: true,
		mpicall.Allgather: true, mpicall.Allgatherv: true,
		mpicall.Alltoall: true, mpicall.Alltoallv: true,
		// Whether these four shrink is still open (ROADMAP item 12): the
		// runtime and the check machine support them, but no panel app
		// calls them. Deciding moves the C proxy's bytes, so it belongs in
		// a change of its own.
		mpicall.Ssend: false, mpicall.Scan: false, mpicall.Exscan: false, mpicall.ReduceScatter: false,
	}
	const bytes = 1 << 20
	all := mpicall.All()
	rt := &trace.RankTrace{}
	prog := &merge.Program{NumRanks: 1}
	regs := map[mpicall.Func]Regression{}
	for i, f := range all {
		r := &trace.Record{Func: f, Bytes: bytes}
		rt.Table, rt.Events, rt.Durs = append(rt.Table, r), append(rt.Events, i), append(rt.Durs, 1e-3)
		prog.Terminals = append(prog.Terminals, r)
		regs[f] = Regression{Beta: 1e-9, N: 2}
	}
	shrunk := shrinkProgram(prog, regs, 10)
	sampled := map[mpicall.Func]bool{}
	for _, s := range CollectCommSamples(&trace.Trace{NumRanks: 1, Ranks: []*trace.RankTrace{rt}}) {
		sampled[s.Func] = true
	}
	for i, f := range all {
		if got := shrunk.Terminals[i].Bytes < bytes; got != rewritten[f] {
			t.Errorf("%s: rewritten %t, want %t", f, got, rewritten[f])
		}
		if want := rewritten[f] && f != mpicall.Isend; sampled[f] != want {
			t.Errorf("%s: sampled %t, want %t", f, sampled[f], want)
		}
	}
}
