// The determinism suite: parallelism is a throughput knob, never a
// semantics knob. For every built-in application and for a corpus of
// randomly generated programs, synthesis at Parallelism 1, 4 and
// GOMAXPROCS must produce byte-identical encoded programs and C sources,
// and the options fingerprint (the artifact-cache key) must not move.
// CI runs this package under -race, so the test also shakes out data
// races in the tree-reduction merge and the concurrent grammar stages.
package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/netmodel"
	"siesta/internal/platform"
	"siesta/internal/proxy"
	"siesta/internal/trace"
)

// parallelisms are the worker counts the suite compares. GOMAXPROCS is
// appended so the default configuration is always exercised, whatever
// the runner's core count.
func parallelisms() []int {
	ps := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		ps = append(ps, p)
	}
	return ps
}

func TestSynthesisDeterministicAcrossParallelism(t *testing.T) {
	for _, spec := range apps.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			ranks := 0
			for r := 8; r <= 16; r++ {
				if spec.ValidRanks(r) {
					ranks = r
					break
				}
			}
			if ranks == 0 {
				t.Fatalf("%s supports no rank count in [8,16]", spec.Name)
			}
			fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
			if err != nil {
				t.Fatal(err)
			}

			// Above 1, the simulated runs overlap; Parallelism is a
			// throughput knob and may move neither a byte of output nor
			// the cache key.
			var refProg []byte
			var refSrc, refFP string
			var refTrace *trace.Trace
			for i, par := range parallelisms() {
				opts := core.Options{Ranks: ranks, Seed: 1, Parallelism: par}
				res, err := core.Synthesize(fn, opts)
				if err != nil {
					t.Fatalf("Parallelism=%d: %v", par, err)
				}
				prog := res.Program.Encode()
				src := res.Generated.CSource()
				fp := core.OptionsFingerprint(res.Opts)
				if i == 0 {
					refProg, refSrc, refFP = prog, src, fp
					refTrace = res.Trace
					continue
				}
				if !bytes.Equal(prog, refProg) {
					t.Errorf("Parallelism=%d: encoded program differs from Parallelism=1", par)
				}
				if src != refSrc {
					t.Errorf("Parallelism=%d: generated C source differs from Parallelism=1", par)
				}
				if fp != refFP {
					t.Errorf("Parallelism=%d: options fingerprint %s != %s — a throughput knob leaked into the cache key", par, fp, refFP)
				}
			}

			// The streamed ingest path is one more configuration of the same
			// synthesis: chunked upload, incremental inference, spill-capable
			// tables — all throughput machinery, none of it may move a byte
			// of output or the cache key.
			for _, par := range parallelisms() {
				opts := core.Options{Ranks: ranks, Seed: 1, Parallelism: par}
				in, err := core.NewIngest(ranks, opts)
				if err != nil {
					t.Fatal(err)
				}
				streamTrace(t, in, refTrace, 512, nil)
				res, err := core.SynthesizeIngest(in, opts)
				if err != nil {
					t.Fatalf("streamed Parallelism=%d: %v", par, err)
				}
				if !bytes.Equal(res.Program.Encode(), refProg) {
					t.Errorf("streamed Parallelism=%d: encoded program differs from batch", par)
				}
				if res.Generated.CSource() != refSrc {
					t.Errorf("streamed Parallelism=%d: generated C source differs from batch", par)
				}
				if fp := core.OptionsFingerprint(res.Opts); fp != refFP {
					t.Errorf("streamed Parallelism=%d: options fingerprint %s != %s — the ingest path leaked into the cache key", par, fp, refFP)
				}
			}
		})
	}
}

// TestMergeDeterministicOnRandomPrograms widens the corpus past the paper
// apps: 20 property-generated programs, each traced once and merged at
// every parallelism level. The encoded program must not depend on the
// worker count.
func TestMergeDeterministicOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ranks := 8
			rec := trace.NewRecorder(ranks, trace.Config{})
			w := mpi.NewWorld(mpi.Config{
				Platform: platform.A, Impl: netmodel.OpenMPI, Size: ranks,
				NoiseSigma: 0.004, Seed: uint64(seed), Interceptor: rec,
			})
			if _, err := w.Run(proxy.RandomProgram(seed, 12)); err != nil {
				t.Fatalf("traced run: %v", err)
			}
			tr := rec.Trace(platform.A.Name, netmodel.OpenMPI.Name)

			var ref []byte
			for i, par := range parallelisms() {
				prog, err := merge.Build(tr, merge.Options{Parallelism: par})
				if err != nil {
					t.Fatalf("Parallelism=%d: %v", par, err)
				}
				enc := prog.Encode()
				if i == 0 {
					ref = enc
				} else if !bytes.Equal(enc, ref) {
					t.Errorf("Parallelism=%d: encoded program differs from Parallelism=1", par)
				}

				// And the streamed merge at the same parallelism: chunked
				// rank streams must reduce to the identical program.
				in, err := merge.NewIngest(ranks, tr.Platform, tr.Impl, merge.Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				streamTrace(t, in, tr, 256, nil)
				sprog, err := in.Build()
				if err != nil {
					t.Fatalf("streamed Parallelism=%d: %v", par, err)
				}
				if !bytes.Equal(sprog.Encode(), ref) {
					t.Errorf("streamed Parallelism=%d: encoded program differs from batch", par)
				}
			}
		})
	}
}
