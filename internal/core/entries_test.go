package core_test

import (
	"bytes"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/blocks"
	"siesta/internal/core"
)

// The three entries share one back half: over the trace Synthesize
// recorded, SynthesizeTrace and SynthesizeIngest reproduce its program and
// C source; each writes exactly one checkpoint, program-only at the merge
// boundary; and resuming from it skips the merge — the ingest even without
// a single streamed byte — and reproduces the same bytes.
func TestEntriesShareTheBackHalf(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Synthesize(fn, synthOpts(ranks))
	if err != nil {
		t.Fatal(err)
	}
	refProg, refSrc := ref.Program.Encode(), ref.Generated.CSource()

	entries := map[string]func(opts core.Options, streamed bool) (*core.Result, error){
		"trace": func(opts core.Options, _ bool) (*core.Result, error) {
			return core.SynthesizeTrace(ref.Trace, opts)
		},
		"ingest": func(opts core.Options, streamed bool) (*core.Result, error) {
			in, err := core.NewIngest(ranks, opts)
			if err != nil {
				return nil, err
			}
			if streamed {
				streamTrace(t, in, ref.Trace, 4096, nil)
			}
			return core.SynthesizeIngest(in, opts)
		},
	}
	for name, synth := range entries {
		t.Run(name, func(t *testing.T) {
			ck := &memCheckpointer{}
			opts := synthOpts(ranks)
			opts.Checkpointer = ck
			opts.SearchMemo = blocks.NewMemo(0)
			res, err := synth(opts, true)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Program.Encode(), refProg) || res.Generated.CSource() != refSrc {
				t.Fatal("output differs from Synthesize over the same trace")
			}
			if len(ck.saved) != 1 {
				t.Fatalf("wrote %d checkpoints, want 1", len(ck.saved))
			}
			cp := ck.saved[0]
			if cp.Phase != core.PhaseMerge || len(cp.TraceBytes) != 0 || len(cp.MemoBytes) != 0 ||
				!bytes.Equal(cp.ProgramBytes, refProg) {
				t.Fatalf("checkpoint phase=%s trace=%dB memo=%dB, want a program-only merge checkpoint",
					cp.Phase, len(cp.TraceBytes), len(cp.MemoBytes))
			}

			again := synthOpts(ranks)
			again.Resume = cp
			res, err = synth(again, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.ResumedFrom != core.PhaseMerge {
				t.Fatalf("ResumedFrom = %q, want %q", res.ResumedFrom, core.PhaseMerge)
			}
			if res.Generated.CSource() != refSrc || res.Check == nil {
				t.Error("resumed output differs, or skipped verification")
			}
		})
	}
}
