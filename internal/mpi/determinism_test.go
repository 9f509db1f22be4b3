package mpi_test

// External test package: these tests record traces through the PMPI
// recorder, and internal/trace imports internal/mpi, so they cannot live in
// package mpi itself.

import (
	"bytes"
	"fmt"
	"testing"

	"siesta/internal/fault"
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/trace"
	"siesta/internal/vtime"
)

// haloApp is a small but realistic SPMD program: neighbor exchange plus a
// global reduction per iteration.
func haloApp(iters int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		c := r.World()
		left := (r.Rank() + r.Size() - 1) % r.Size()
		right := (r.Rank() + 1) % r.Size()
		for i := 0; i < iters; i++ {
			r.Compute(perfmodel.Kernel{IntOps: 5e6, FPOps: 2e6})
			r.Sendrecv(c, right, 0, 4096, left, 0)
			r.Allreduce(c, 64, mpi.OpSum)
		}
	}
}

func tracedRun(t *testing.T, plan *fault.Plan, deadline vtime.Duration) ([]byte, *mpi.RunResult, error) {
	t.Helper()
	rec := trace.NewRecorder(4, trace.Config{})
	w := mpi.NewWorld(mpi.Config{
		Size: 4, Seed: 42, Interceptor: rec,
		Faults: plan, Deadline: deadline,
	})
	res, err := w.Run(haloApp(6))
	if err != nil {
		return nil, nil, err
	}
	return rec.Trace("A", "openmpi").Encode(), res, nil
}

func TestFaultPlanTraceDeterminism(t *testing.T) {
	// A perturbing-but-survivable plan: delays, a straggler, and chaos
	// delays. Identical plan + seed must reproduce the trace bit for bit.
	plan := &fault.Plan{
		Seed: 7,
		Delays: []fault.Delay{{
			Match: fault.Match{Src: fault.Any, Dst: fault.Any, Tag: fault.Any}, Factor: 3,
		}},
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 2}},
		Chaos:      &fault.Chaos{DelayProb: 0.5, DelayFactor: 4},
	}
	enc1, res1, err := tracedRun(t, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc2, res2, err := tracedRun(t, plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("identical fault plan and seed produced different traces")
	}
	if res1.ExecTime != res2.ExecTime {
		t.Fatalf("identical fault plan and seed produced different times: %v vs %v",
			res1.ExecTime, res2.ExecTime)
	}

	// A different fault seed must actually change the outcome (otherwise
	// the chaos stream is not wired in).
	reseeded := *plan
	reseeded.Seed = 8
	_, res3, err := tracedRun(t, &reseeded, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res3.ExecTime == res1.ExecTime {
		t.Error("changing the fault seed changed nothing; chaos decisions are not seeded")
	}
}

func TestNoPlanMatchesEmptyPlan(t *testing.T) {
	// No plan and an all-zero plan must leave existing traces unchanged.
	encNil, resNil, err := tracedRun(t, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	encEmpty, resEmpty, err := tracedRun(t, &fault.Plan{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encNil, encEmpty) {
		t.Fatal("an empty fault plan perturbed the trace")
	}
	if resNil.ExecTime != resEmpty.ExecTime {
		t.Fatalf("an empty fault plan perturbed execution: %v vs %v",
			resNil.ExecTime, resEmpty.ExecTime)
	}
}

// TestChaosModeNeverHangs is the robustness acceptance test: 100 seeded
// chaos runs with drops, delays and crashes. Every run must terminate with
// either success or a structured error — no panics (World.Run absorbs rank
// panics into errors) and no hangs (the drained-queue verdict plus the
// virtual-time deadline bound every schedule; the test binary's own timeout
// backstops that claim). Each seed is run twice to confirm the outcome is a
// pure function of the plan.
func TestChaosModeNeverHangs(t *testing.T) {
	outcome := func(seed uint64) (string, vtime.Duration) {
		plan := &fault.Plan{
			Seed: seed,
			Chaos: &fault.Chaos{
				DropProb:    0.01,
				DelayProb:   0.2,
				DelayFactor: 5,
				CrashProb:   0.002,
			},
		}
		w := mpi.NewWorld(mpi.Config{
			Size: 4, Seed: seed, Faults: plan,
			Deadline: vtime.Duration(60),
		})
		res, err := w.Run(haloApp(4))
		if err != nil {
			return fmt.Sprintf("error: %v", err), 0
		}
		return "ok", res.ExecTime
	}

	var ok, failed int
	for seed := uint64(1); seed <= 100; seed++ {
		o1, t1 := outcome(seed)
		o2, t2 := outcome(seed)
		// Fault decisions are seed-deterministic, so success/failure is
		// too. (Which rank reports a racy abort first is scheduling-
		// dependent, so only the successful runs' times are compared.)
		if (o1 == "ok") != (o2 == "ok") {
			t.Fatalf("seed %d: outcome flipped between runs: %q vs %q", seed, o1, o2)
		}
		if o1 == "ok" {
			ok++
			if t1 != t2 {
				t.Fatalf("seed %d: same plan, different times: %v vs %v", seed, t1, t2)
			}
		} else {
			failed++
		}
	}
	t.Logf("chaos: %d clean runs, %d structured failures", ok, failed)
	if ok == 0 || failed == 0 {
		t.Errorf("chaos probabilities degenerate: %d ok, %d failed — want a mix", ok, failed)
	}
}
