package proxy

import (
	"strings"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/codegen"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// TestBTIOPipeline runs the I/O-extended BT through the whole pipeline: the
// checkpoint writes must be traced (file pool renaming, relative offsets),
// merged losslessly, replayed with the same I/O cost, and emitted as MPI-IO
// calls in the generated C.
func TestBTIOPipeline(t *testing.T) {
	const ranks = 9
	spec, err := apps.ByName("BTIO")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 8, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: rec, NoiseSigma: 0.004, Seed: 17})
	orig, err := w.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	h := tr.FuncHistogram()
	for _, f := range []string{"MPI_File_open", "MPI_File_write_at_all", "MPI_File_read_at_all", "MPI_File_close"} {
		if h[f] == 0 {
			t.Errorf("trace lacks %s", f)
		}
	}

	prog, err := merge.Build(tr, merge.Options{}) // lossless self-check inside
	if err != nil {
		t.Fatal(err)
	}
	// Relative offset encoding: the per-rank block writes of one
	// checkpoint must merge into a single terminal across all ranks.
	writeTerminals := 0
	for _, r := range prog.Terminals {
		if r.Func == mpicall.FileWriteAtAll {
			writeTerminals++
		}
	}
	checkpoints := h["MPI_File_write_at_all"] / ranks
	if writeTerminals != checkpoints {
		t.Errorf("%d write terminals for %d checkpoints — relative offsets did not merge across ranks",
			writeTerminals, checkpoints)
	}

	gen, err := codegen.Generate(prog, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(gen).Run(mpi.Config{Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.Ranks {
		if res.Ranks[i].Calls != orig.Ranks[i].Calls {
			t.Errorf("rank %d: %d calls vs %d", i, res.Ranks[i].Calls, orig.Ranks[i].Calls)
		}
	}
	rel := relErr(float64(res.ExecTime), float64(orig.ExecTime))
	if rel > 0.15 {
		t.Errorf("BTIO replay time error %.1f%%", rel*100)
	}

	src := gen.CSource()
	for _, want := range []string{"MPI_File_open", "MPI_File_write_at_all", "MPI_File_close", "file_pool"} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C lacks %s", want)
		}
	}
}

// TestIOTraceCodecRoundTrip ensures the new record fields survive
// serialization.
func TestIOTraceCodecRoundTrip(t *testing.T) {
	const ranks = 4
	spec, err := apps.ByName("BTIO")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 4, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(ranks, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: ranks, Interceptor: rec, Seed: 2})
	if _, err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	got, err := trace.Decode(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Ranks {
		for j := range tr.Ranks[i].Table {
			a, b := tr.Ranks[i].Table[j], got.Ranks[i].Table[j]
			if a.KeyString() != b.KeyString() {
				t.Fatalf("rank %d record %d mismatch after codec round trip", i, j)
			}
		}
	}
}
