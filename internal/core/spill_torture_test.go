// Spill-table torture (DESIGN.md §15): with the high-water mark forced to
// one byte, every terminal of every rank spills to disk during streaming
// ingest — and not one output byte may move. The reference points are the
// strongest available: the golden-pinned artifact hashes for CG@8, and a
// fresh batch synthesis for CG@16. Both tests also hold the ownership
// rule: commit (and abort) must leave zero spill files behind.
package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/trace"
)

func cgSpec(t *testing.T) *apps.Spec {
	t.Helper()
	for _, spec := range apps.All() {
		if spec.Name == "CG" {
			return spec
		}
	}
	t.Fatal("CG app not registered")
	return nil
}

func countSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "siesta-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// synthesizeSpilled runs the streamed path for the app with everything
// forced to disk, returning the result and asserting spilling really
// happened and really cleaned up.
func synthesizeSpilled(t *testing.T, spec *apps.Spec, ranks int, refTrace *trace.Trace) *core.Result {
	t.Helper()
	dir := t.TempDir()
	opts := core.Options{Ranks: ranks, Seed: 1}
	opts.Merge.Spill = trace.SpillConfig{HighWater: 1, Dir: dir}
	in, err := core.NewIngest(ranks, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, in, refTrace, 256, nil)
	st := in.SpillStats()
	if st.Spilled == 0 || st.SpilledBytes == 0 {
		t.Fatalf("high-water 1 did not force spilling: %+v", st)
	}
	if st.Records != st.Spilled {
		t.Fatalf("expected every terminal spilled, got %d of %d: %+v", st.Spilled, st.Records, st)
	}
	// One spill file per session, however many ranks spilled into it.
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files on disk mid-session, want 1", n)
	}
	res, err := core.SynthesizeIngest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files leaked after commit", n)
	}
	return res
}

// The spilled streamed path must reproduce the repo's pinned golden
// hashes for CG — the same pins the batch path is held to.
func TestSpilledStreamingMatchesGoldenPins(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", goldenPath, err)
	}
	pins := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	spec := cgSpec(t)
	for _, ranks := range []int{4, 8} {
		ranks := ranks
		t.Run(fmt.Sprintf("CG@%d", ranks), func(t *testing.T) {
			t.Parallel()
			pin, ok := pins[fmt.Sprintf("CG@%d", ranks)]
			if !ok {
				t.Fatalf("CG@%d not pinned in %s", ranks, goldenPath)
			}
			fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			// The golden pins were produced by batch synthesis; the trace to
			// stream comes from the same deterministic run.
			ref, err := core.Synthesize(fn, core.Options{Ranks: ranks, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			res := synthesizeSpilled(t, spec, ranks, ref.Trace)
			if got := fmt.Sprintf("%x", sha256.Sum256(res.Program.Encode())); got != pin.Program {
				t.Errorf("spilled streamed program %s != golden pin %s", got, pin.Program)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Generated.CSource()))); got != pin.CSource {
				t.Errorf("spilled streamed C source %s != golden pin %s", got, pin.CSource)
			}
		})
	}
}

// CG@16 is past the golden pin set; batch synthesis is the reference. The
// spill config must also stay out of the cache key.
func TestSpilledStreamingCG16MatchesBatch(t *testing.T) {
	const ranks = 16
	spec := cgSpec(t)
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Synthesize(fn, core.Options{Ranks: ranks, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := synthesizeSpilled(t, spec, ranks, ref.Trace)
	if !bytes.Equal(res.Program.Encode(), ref.Program.Encode()) {
		t.Error("spilled streamed program differs from batch")
	}
	if res.Generated.CSource() != ref.Generated.CSource() {
		t.Error("spilled streamed C source differs from batch")
	}
	if got, want := core.OptionsFingerprint(res.Opts), core.OptionsFingerprint(ref.Opts); got != want {
		t.Errorf("spill config leaked into the fingerprint: %s != %s", got, want)
	}
}

// Aborting a spilled session must also remove its files — the other half
// of the ownership rule.
func TestSpilledStreamingAbortCleansUp(t *testing.T) {
	const ranks = 8
	spec := cgSpec(t)
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Synthesize(fn, core.Options{Ranks: ranks, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := core.Options{Ranks: ranks, Seed: 1}
	opts.Merge.Spill = trace.SpillConfig{HighWater: 1, Dir: dir}
	in, err := core.NewIngest(ranks, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamTrace(t, in, ref.Trace, 256, nil)
	if n := countSpillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files mid-session, want 1", n)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countSpillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files leaked after abort", n)
	}
}
