package proxy

import (
	"testing"

	"siesta/internal/codegen"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/trace"
)

// extendedFull exercises the runtime surface beyond the paper's nine
// programs: synchronous sends, probes, waitany, testall, prefix scans and
// reduce-scatter — everything the tracer and replayer must carry through
// the grammar pipeline.
func extendedFull(r *mpi.Rank) {
	c := r.World()
	next := (r.Rank() + 1) % r.Size()
	prev := (r.Rank() - 1 + r.Size()) % r.Size()
	k := perfmodel.Kernel{IntOps: 2e6, FPOps: 1e6, Loads: 1e6, Stores: 4e5, Branches: 8e5, MissLines: 5e4}

	// Persistent halo pair, reused across iterations.
	psend := r.SendInit(c, next, 8, 1024)
	precv := r.RecvInit(c, prev, 8)

	for it := 0; it < 4; it++ {
		r.Compute(k)
		rq := r.Irecv(c, prev, 1)
		r.Ssend(c, next, 1, 2048)
		r.Wait(rq)

		r.Start(precv)
		r.Start(psend)
		r.Wait(psend)
		r.Wait(precv)

		r.Send(c, next, 2, 512)
		r.Probe(c, prev, 2)
		r.Recv(c, prev, 2)

		// Waitany over two staged receives.
		a := r.Irecv(c, prev, 3)
		b := r.Irecv(c, next, 4)
		r.Isend(c, next, 3, 256)
		r.Isend(c, prev, 4, 256)
		idx, _ := r.Waitany([]mpi.Req{a, b})
		rest := a
		if idx == 0 {
			rest = b
		}
		for !r.Testall([]mpi.Req{rest}) {
			r.Compute(perfmodel.Kernel{IntOps: 1e5})
		}

		r.Scan(c, 64, mpi.OpSum)
		r.Exscan(c, 32, mpi.OpSum)
		r.ReduceScatter(c, 16, mpi.OpMax)
	}
	r.RequestFree(psend)
	r.RequestFree(precv)
}

func TestExtendedCallsRoundTripPipeline(t *testing.T) {
	const ranks = 6
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: rec, NoiseSigma: 0.004, Seed: 77})
	orig, err := w.Run(extendedFull)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	h := tr.FuncHistogram()
	for _, f := range []string{"MPI_Ssend", "MPI_Probe", "MPI_Waitany", "MPI_Testall",
		"MPI_Scan", "MPI_Exscan", "MPI_Reduce_scatter",
		"MPI_Send_init", "MPI_Recv_init", "MPI_Start", "MPI_Request_free"} {
		if h[f] == 0 {
			t.Errorf("trace lacks %s events", f)
		}
	}

	prog, err := merge.Build(tr, merge.Options{}) // self-checks losslessness
	if err != nil {
		t.Fatal(err)
	}
	gen, err := codegen.Generate(prog, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(gen).Run(mpi.Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("proxy did nothing")
	}
	rel := relErr(float64(res.ExecTime), float64(orig.ExecTime))
	if rel > 0.25 {
		t.Errorf("extended replay time error %.1f%% (proxy %v, orig %v)",
			rel*100, res.ExecTime, orig.ExecTime)
	}

	// And the generated C must mention the extended calls.
	src := gen.CSource()
	for _, want := range []string{"MPI_Ssend", "MPI_Probe", "MPI_Scan", "MPI_Exscan", "MPI_Reduce_scatter"} {
		if !containsStr(src, want) {
			t.Errorf("generated C lacks %s", want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
