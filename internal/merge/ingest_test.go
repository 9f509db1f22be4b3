package merge

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/trace"
)

// feedIngest streams tr into a fresh Ingest session: each rank's chunk
// stream is cut into chunkSize-byte pieces (0 = whole stream at once) and
// the pieces are delivered round-robin over the ranks in the given
// visitation order — the adversarial interleaving a real gateway produces
// when many uploaders race.
func feedIngest(t *testing.T, tr *trace.Trace, opts Options, chunkSize int, order []int) *Ingest {
	t.Helper()
	in, err := NewIngest(len(tr.Ranks), tr.Platform, tr.Impl, opts)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]byte, len(tr.Ranks))
	for i, rt := range tr.Ranks {
		streams[i] = trace.ChunkEncodeRank(rt)
	}
	if order == nil {
		order = make([]int, len(tr.Ranks))
		for i := range order {
			order[i] = i
		}
	}
	for remaining := len(order); remaining > 0; {
		for _, r := range order {
			if len(streams[r]) == 0 {
				continue
			}
			n := chunkSize
			if n <= 0 || n > len(streams[r]) {
				n = len(streams[r])
			}
			if err := in.Rank(r).Feed(streams[r][:n]); err != nil {
				t.Fatalf("rank %d feed: %v", r, err)
			}
			streams[r] = streams[r][n:]
			if len(streams[r]) == 0 {
				remaining--
			}
		}
	}
	return in
}

// The unbreakable contract: streamed ingest at any chunk size and any
// rank-arrival interleaving produces the byte-identical Program the batch
// path produces from the equivalent trace.
func TestIngestMatchesBatchByteIdentical(t *testing.T) {
	traces := map[string]*trace.Trace{
		"ring8":          ringTrace(t, 8, 4),
		"ring13":         ringTrace(t, 13, 3), // non-power-of-two tree
		"masterWorker9":  masterWorkerTrace(t, 9, 3),
		"masterWorker16": masterWorkerTrace(t, 16, 2),
	}
	for name, tr := range traces {
		opts := Options{Parallelism: 2}
		want, err := refBuild(tr, opts)
		if err != nil {
			t.Fatalf("%s: batch reference: %v", name, err)
		}
		wantEnc := want.Encode()

		reversed := make([]int, len(tr.Ranks))
		for i := range reversed {
			reversed[i] = len(tr.Ranks) - 1 - i
		}
		shuffled := rand.New(rand.NewSource(7)).Perm(len(tr.Ranks))
		orders := map[string][]int{"forward": nil, "reverse": reversed, "shuffled": shuffled}

		for _, chunkSize := range []int{1, 7, 4096, 0} {
			for oname, order := range orders {
				t.Run(fmt.Sprintf("%s/chunk%d/%s", name, chunkSize, oname), func(t *testing.T) {
					in := feedIngest(t, tr, opts, chunkSize, order)
					got, err := in.Build()
					if err != nil {
						t.Fatalf("ingest build: %v", err)
					}
					if !bytes.Equal(wantEnc, got.Encode()) {
						t.Fatal("streamed program differs from batch program")
					}
				})
			}
		}
	}
}

// Concurrent per-rank uploads (one goroutine per rank, tiny chunks) must
// still match batch byte-for-byte; run under -race this also proves the
// per-rank locking discipline.
func TestIngestConcurrentFeedsMatchBatch(t *testing.T) {
	tr := masterWorkerTrace(t, 16, 3)
	opts := Options{Parallelism: runtime.GOMAXPROCS(0)}
	want, err := refBuild(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewIngest(len(tr.Ranks), tr.Platform, tr.Impl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r, rt := range tr.Ranks {
		wg.Add(1)
		go func(r int, stream []byte) {
			defer wg.Done()
			ri := in.Rank(r)
			for len(stream) > 0 {
				n := 64
				if n > len(stream) {
					n = len(stream)
				}
				if err := ri.Feed(stream[:n]); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				stream = stream[n:]
			}
		}(r, trace.ChunkEncodeRank(rt))
	}
	wg.Wait()
	got, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Encode(), got.Encode()) {
		t.Fatal("concurrently-fed program differs from batch")
	}
}

// collapseTrace is built so the tree reduction collapses one rank's two
// distinct computation clusters at an *inner* node: rank 1 runs kernels at
// 80 and 130 (units of 1e6 int ops) — more than 30% apart, so they stay
// distinct at rank 1's own leaf — while rank 0 runs one at 100, within 30%
// of both. Merging rank 1 into rank 0 under ClusterThreshold 0.3 maps both
// of rank 1's clusters onto rank 0's, making rank 1's two compute records
// key-equal — the leaf→root map goes non-injective and Build must take the
// re-inference fallback.
func collapseTrace(t *testing.T) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder(2, trace.Config{})
	w := mpi.NewWorld(mpi.Config{Size: 2, Interceptor: rec})
	_, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		for it := 0; it < 3; it++ {
			if r.Rank() == 0 {
				r.Compute(perfmodel.Kernel{IntOps: 100e6})
			} else {
				r.Compute(perfmodel.Kernel{IntOps: 80e6})
				r.Compute(perfmodel.Kernel{IntOps: 130e6})
			}
			r.Barrier(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace("A", "openmpi")
}

func TestIngestClusterCollapseFallback(t *testing.T) {
	tr := collapseTrace(t)
	opts := Options{ClusterThreshold: 0.3}
	want, err := refBuild(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, n, err := BuildReinferred(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || !bytes.Equal(want.Encode(), batch.Encode()) {
		t.Fatalf("batch Build: %d ranks re-inferred, want > 0, and output must match the reference", n)
	}
	in := feedIngest(t, tr, opts, 3, nil)
	got, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in.Reinferred() == 0 {
		t.Fatal("expected the non-injective re-inference fallback to trigger; test trace no longer collapses")
	}
	if !bytes.Equal(want.Encode(), got.Encode()) {
		t.Fatal("re-inferred streamed program differs from batch")
	}
	// Sanity: at the default (finer) threshold nothing collapses and the
	// pure relabel path must be taken — and still match.
	want2, err := refBuild(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in2 := feedIngest(t, tr, Options{}, 3, nil)
	got2, err := in2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if in2.Reinferred() != 0 {
		t.Fatal("default threshold unexpectedly hit the fallback")
	}
	if !bytes.Equal(want2.Encode(), got2.Encode()) {
		t.Fatal("relabeled streamed program differs from batch")
	}
}

// countSpillFiles counts siesta-spill-* temp files in dir.
func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "siesta-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// A few-KB high-water mark forces nearly every terminal to disk; the
// output must not change by a byte, and commit must remove every spill
// file.
func TestIngestSpillTortureByteIdentical(t *testing.T) {
	tr := masterWorkerTrace(t, 16, 3)
	want, err := refBuild(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The high-water mark is per rank table; 1 byte forces every terminal
	// of every rank to disk.
	opts := Options{Spill: trace.SpillConfig{HighWater: 1, Dir: dir}}
	in := feedIngest(t, tr, opts, 128, nil)
	if st := in.SpillStats(); st.Spilled == 0 {
		t.Fatalf("high-water %d did not force spilling: %+v", opts.Spill.HighWater, st)
	}
	got, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Encode(), got.Encode()) {
		t.Fatal("spilled streamed program differs from batch")
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files leaked after Build", n)
	}
}

// Abandoned sessions must not leak spill files either: Close on an
// uncommitted (even mid-stream) session removes them.
func TestIngestAbortRemovesSpillFiles(t *testing.T) {
	tr := ringTrace(t, 8, 4)
	dir := t.TempDir()
	opts := Options{Spill: trace.SpillConfig{HighWater: 1, Dir: dir}}
	in, err := NewIngest(len(tr.Ranks), tr.Platform, tr.Impl, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Feed only half the ranks (fully, so their terminals spill); the
	// session can never commit because the rest never arrive.
	for r := 0; r < len(tr.Ranks)/2; r++ {
		if err := in.Rank(r).Feed(trace.ChunkEncodeRank(tr.Ranks[r])); err != nil {
			t.Fatal(err)
		}
	}
	// One spill file per session, however many ranks spilled into it.
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files mid-session, want 1", n)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files leaked after Close", n)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := in.Build(); err == nil {
		t.Fatal("Build after Close should fail")
	}
}

func TestIngestErrors(t *testing.T) {
	tr := ringTrace(t, 4, 2)
	streams := make([][]byte, 4)
	for i, rt := range tr.Ranks {
		streams[i] = trace.ChunkEncodeRank(rt)
	}

	t.Run("wrong rank slot", func(t *testing.T) {
		in, _ := NewIngest(4, "A", "openmpi", Options{})
		defer in.Close()
		if err := in.Rank(1).Feed(streams[0]); err == nil {
			t.Fatal("feeding rank 0's stream into slot 1 should fail")
		}
		// The error is sticky.
		if err := in.Rank(1).Feed(streams[1]); err == nil {
			t.Fatal("poisoned rank accepted more bytes")
		}
	})

	t.Run("incomplete stream", func(t *testing.T) {
		in, _ := NewIngest(4, "A", "openmpi", Options{})
		for r := 0; r < 4; r++ {
			end := len(streams[r])
			if r == 2 {
				end /= 2 // rank 2 never finishes
			}
			if err := in.Rank(r).Feed(streams[r][:end]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := in.Build(); err == nil {
			t.Fatal("Build with an incomplete rank stream should fail")
		}
	})

	t.Run("corrupt frame", func(t *testing.T) {
		in, _ := NewIngest(4, "A", "openmpi", Options{})
		defer in.Close()
		bad := bytes.Clone(streams[0])
		bad[len(bad)/2] ^= 0xff
		if err := in.Rank(0).Feed(bad); err == nil {
			t.Fatal("corrupted stream should fail the CRC or validation")
		}
	})

	t.Run("feed after seal", func(t *testing.T) {
		in, _ := NewIngest(4, "A", "openmpi", Options{})
		in.Close()
		if err := in.Rank(0).Feed(streams[0]); err == nil {
			t.Fatal("feed after Close should fail")
		}
	})

	t.Run("double build", func(t *testing.T) {
		in := feedIngest(t, tr, Options{}, 0, nil)
		if _, err := in.Build(); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Build(); err == nil {
			t.Fatal("second Build should fail")
		}
	})
}

// Progress surfaces: Ended/Events/Bytes must be consistent mid-stream and
// at completion, and polling them must not perturb the result.
func TestIngestProgressSurfaces(t *testing.T) {
	tr := ringTrace(t, 4, 4)
	want, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := NewIngest(4, tr.Platform, tr.Impl, Options{})
	for r, rt := range tr.Ranks {
		stream := trace.ChunkEncodeRank(rt)
		ri := in.Rank(r)
		half := len(stream) / 2
		if err := ri.Feed(stream[:half]); err != nil {
			t.Fatal(err)
		}
		if ri.Ended() {
			t.Fatalf("rank %d claims ended at half stream", r)
		}
		if err := ri.Feed(stream[half:]); err != nil {
			t.Fatal(err)
		}
		if !ri.Ended() {
			t.Fatalf("rank %d not ended after full stream", r)
		}
		if got, want := ri.Events(), len(rt.Events); got != want {
			t.Fatalf("rank %d ingested %d events, trace has %d", r, got, want)
		}
		if got, want := ri.Bytes(), int64(len(stream)); got != want {
			t.Fatalf("rank %d counted %d bytes, stream is %d", r, got, want)
		}
	}
	got, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Encode(), got.Encode()) {
		t.Fatal("mid-stream progress polls perturbed the final program")
	}
}

// Spill I/O failures must surface promptly at Feed (not at commit) and be
// sticky.
func TestIngestSpillErrorSurfacesAtFeed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	tr := ringTrace(t, 2, 8)
	in, _ := NewIngest(2, "A", "openmpi", Options{Spill: trace.SpillConfig{HighWater: 1, Dir: dir}})
	defer in.Close()
	stream := trace.ChunkEncodeRank(tr.Ranks[0])
	err := in.Rank(0).Feed(stream)
	if err == nil {
		t.Fatal("spill into a nonexistent dir should fail the feed")
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("unexpected error: %v", err)
	}
	if err2 := in.Rank(0).Feed(nil); !errors.Is(err2, err) {
		t.Fatalf("second Feed: %v, want the sticky %v", err2, err)
	}
}
