// Checkpoint/restart extension of the determinism suite (ISSUE 6): a
// synthesis interrupted at any phase boundary and resumed from its
// checkpoint must produce a byte-identical artifact — encoded program and
// generated C source — to an uninterrupted run. CI runs this under -race.
package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/codegen"
	"siesta/internal/core"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
)

// memCheckpointer records every checkpoint in memory and can be told to
// fail at a given boundary.
type memCheckpointer struct {
	mu     sync.Mutex
	saved  []*core.Checkpoint
	failAt string
}

func (m *memCheckpointer) Save(cp *core.Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failAt != "" && cp.Phase == m.failAt {
		return fmt.Errorf("injected checkpoint failure at %s", cp.Phase)
	}
	m.saved = append(m.saved, cp)
	return nil
}

func (m *memCheckpointer) at(phase string) *core.Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, cp := range m.saved {
		if cp.Phase == phase {
			return cp
		}
	}
	return nil
}

func synthOpts(ranks int) core.Options {
	return core.Options{Ranks: ranks, Seed: 3}
}

// A scaled synthesis is one more input: its codegen fits the recorded
// communication timings, which the trace encoding drops, so the
// checkpoints must carry them for a resume to serve the same bytes.
func TestResumeFromEveryBoundaryIsByteIdentical(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	testResumeFromEveryBoundary(t, fn, ranks, 1, "")
	testResumeFromEveryBoundary(t, fn, ranks, 10, "scale10_")
}

// testResumeFromEveryBoundary resumes from each of a control run's
// checkpoints in a subtest named prefix+"resume_"+phase.
func testResumeFromEveryBoundary(t *testing.T, fn func(*mpi.Rank), ranks int, scale float64, prefix string) {
	opts := func() core.Options {
		o := synthOpts(ranks)
		o.Scale = scale
		return o
	}
	// Control: uninterrupted run, checkpointing every boundary. A private
	// memo isolates the run from the process-global DefaultMemo so the
	// post-search snapshot is exactly this run's solves.
	ck := &memCheckpointer{}
	ctrl := opts()
	ctrl.Checkpointer = ck
	ctrl.SearchMemo = blocks.NewMemo(0)
	ref, err := core.Synthesize(fn, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	refProg := ref.Program.Encode()
	refSrc := ref.Generated.CSource()
	if ref.ResumedFrom != "" {
		t.Fatalf("control run reports ResumedFrom=%q", ref.ResumedFrom)
	}
	if len(ck.saved) != 3 {
		t.Fatalf("control run wrote %d checkpoints, want 3", len(ck.saved))
	}
	if scaled := scale > 1; scaled != (len(ck.at(core.PhaseTrace).CommSamples) > 0) {
		t.Fatalf("scale %g: trace checkpoint carries %d comm samples", scale, len(ck.at(core.PhaseTrace).CommSamples))
	}

	for _, phase := range []string{core.PhaseTrace, core.PhaseMerge, core.PhaseSearch} {
		t.Run(prefix+"resume_"+phase, func(t *testing.T) {
			cp := ck.at(phase)
			if cp == nil {
				t.Fatalf("no checkpoint at %s boundary", phase)
			}
			// The blob round trip is what a restarted node resumes from.
			cp, err := core.DecodeCheckpoint(cp.Encode())
			if err != nil {
				t.Fatal(err)
			}
			o := opts()
			o.Resume = cp
			o.SearchMemo = blocks.NewMemo(0) // cold memo: only the snapshot may warm it
			res, err := core.Synthesize(fn, o)
			if err != nil {
				t.Fatalf("resume from %s: %v", phase, err)
			}
			if res.ResumedFrom != phase {
				t.Fatalf("ResumedFrom = %q, want %q", res.ResumedFrom, phase)
			}
			if res.BaselineRun != nil || res.TracedRun != nil {
				t.Error("resumed run re-ran the simulated executions")
			}
			if res.Overhead != ref.Overhead {
				t.Errorf("Overhead %v != control %v", res.Overhead, ref.Overhead)
			}
			if !bytes.Equal(res.Program.Encode(), refProg) {
				t.Errorf("resume from %s: encoded program differs from uninterrupted run", phase)
			}
			if res.Generated.CSource() != refSrc {
				t.Errorf("resume from %s: generated C source differs from uninterrupted run", phase)
			}
			if res.Program.Digest() != ref.Program.Digest() {
				t.Errorf("resume from %s: program digest moved", phase)
			}
			if res.Check == nil {
				t.Error("resumed run skipped static verification")
			}
		})
	}

	// Checkpoints themselves must be deterministic: a second uninterrupted
	// run writes payload-identical checkpoints.
	ck2 := &memCheckpointer{}
	again := opts()
	again.Checkpointer = ck2
	again.SearchMemo = blocks.NewMemo(0)
	if _, err := core.Synthesize(fn, again); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{core.PhaseTrace, core.PhaseMerge, core.PhaseSearch} {
		a, b := ck.at(phase), ck2.at(phase)
		if !a.Equal(b) {
			t.Errorf("checkpoint at %s differs between identical runs", phase)
		}
	}
}

func TestResumeFingerprintMismatchForcesRecompute(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ck := &memCheckpointer{}
	opts := synthOpts(ranks)
	opts.Checkpointer = ck
	if _, err := core.Synthesize(fn, opts); err != nil {
		t.Fatal(err)
	}
	cp := ck.at(core.PhaseSearch)

	// Different seed → different fingerprint → the checkpoint must be
	// ignored and the run recomputed from scratch.
	other := synthOpts(ranks)
	other.Seed = 99
	other.Resume = cp
	res, err := core.Synthesize(fn, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != "" {
		t.Fatalf("mismatched checkpoint was honored (ResumedFrom=%q)", res.ResumedFrom)
	}
	if res.BaselineRun == nil || res.TracedRun == nil {
		t.Fatal("clean recompute skipped the simulated runs")
	}

	// Corrupt payload with a matching fingerprint must also degrade
	// cleanly. Truncating the trace bytes kills the whole checkpoint.
	bad := *cp
	bad.TraceBytes = cp.TraceBytes[:len(cp.TraceBytes)/2]
	brOpts := synthOpts(ranks)
	brOpts.Resume = &bad
	res, err = core.Synthesize(fn, brOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != "" {
		t.Fatalf("corrupt checkpoint was honored (ResumedFrom=%q)", res.ResumedFrom)
	}

	// A corrupt program section with an intact trace degrades to a
	// post-trace resume.
	bad = *cp
	bad.ProgramBytes = cp.ProgramBytes[:len(cp.ProgramBytes)/3]
	dgOpts := synthOpts(ranks)
	dgOpts.Resume = &bad
	res, err = core.Synthesize(fn, dgOpts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != core.PhaseTrace {
		t.Fatalf("degraded resume reports %q, want %q", res.ResumedFrom, core.PhaseTrace)
	}
}

func TestCheckpointSaveFailureIsTypedAndTransient(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ck := &memCheckpointer{failAt: core.PhaseMerge}
	opts := synthOpts(ranks)
	opts.Checkpointer = ck
	_, err = core.Synthesize(fn, opts)
	var cerr *core.CheckpointError
	if !errors.As(err, &cerr) {
		t.Fatalf("want *core.CheckpointError, got %v", err)
	}
	if cerr.Phase != core.PhaseMerge {
		t.Fatalf("failure phase %q, want %q", cerr.Phase, core.PhaseMerge)
	}
	// The trace boundary before the failure was still persisted — a retry
	// resumes from it.
	if ck.at(core.PhaseTrace) == nil {
		t.Fatal("post-trace checkpoint missing after later failure")
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := &core.Checkpoint{
		Fingerprint:  "fp-123",
		Phase:        core.PhaseMerge,
		Overhead:     0.0625,
		TraceBytes:   []byte{1, 2, 3, 0xff},
		ProgramBytes: []byte("SIESTA-PROG1-ish"),
		MemoBytes:    []byte{9, 9},
		CommSamples: []codegen.CommSample{
			{Func: mpicall.Send, Bytes: 64, Dur: 1.5e-6},
			{Func: mpicall.Allreduce, Bytes: 8, Dur: 3e-6},
		},
	}
	got, err := core.DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cp) || !bytes.Equal(got.MemoBytes, cp.MemoBytes) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, cp)
	}
	// Truncations fail cleanly, never panic.
	enc := cp.Encode()
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := core.DecodeCheckpoint(enc[:cut]); err == nil {
			t.Fatalf("truncated checkpoint at %d decoded successfully", cut)
		}
	}
	if _, err := core.DecodeCheckpoint([]byte("garbage")); err == nil {
		t.Fatal("garbage decoded")
	}
	bad := *cp
	bad.Phase = "lunch"
	if _, err := core.DecodeCheckpoint(bad.Encode()); err == nil {
		t.Fatal("unknown phase accepted")
	}
	// A sample naming a call outside the table is refused by name.
	renamed := bytes.Replace(enc, []byte("\x0dMPI_Allreduce"), []byte("\x0cMPI_Win_lock"), 1)
	_, err = core.DecodeCheckpoint(renamed)
	var unknown *mpicall.UnknownError
	if !errors.As(err, &unknown) || unknown.Name != "MPI_Win_lock" {
		t.Fatalf("checkpoint naming MPI_Win_lock: got %v, want *mpicall.UnknownError", err)
	}
}
