// The streamed-equals-batch differential harness (DESIGN.md §15): for
// every built-in application and a corpus of random programs, feeding the
// trace through the chunked streaming ingest path — at any chunk size,
// any rank-arrival interleaving, any parallelism — must synthesize a
// byte-identical program AND byte-identical C source to the one-shot
// batch path, witnessed by sha256. CI runs this under -race, so the
// concurrent per-rank feeds also shake out locking bugs in the ingestors.
package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/merge"
	"siesta/internal/proxy"
	"siesta/internal/trace"
)

// streamTrace feeds tr into the ingest session: each rank's chunk stream
// is cut into chunkSize-byte pieces (0 = whole stream) delivered
// round-robin over ranks in the given visitation order — the
// interleaving a gateway fans in when rank uploads race.
func streamTrace(t *testing.T, in *merge.Ingest, tr *trace.Trace, chunkSize int, order []int) {
	t.Helper()
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
}

// chunkSizes is the sweep: pathological (1 byte), prime-misaligned (7),
// realistic (4096), and degenerate whole-stream (0).
var chunkSizes = []int{1, 7, 4096, 0}

func TestStreamedSynthesisMatchesBatchForApps(t *testing.T) {
	pars := []int{1, runtime.GOMAXPROCS(0)}
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
			opts := core.Options{Ranks: ranks, Seed: 1}
			ref, err := core.Synthesize(fn, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Scale 10 is one more option set. A stream carries no call
			// timings, so its reference is the one-shot upload's:
			// SynthesizeTrace over the decoded trace, which has none either.
			decoded, err := trace.Decode(ref.Trace.Encode())
			if err != nil {
				t.Fatal(err)
			}
			scaled, err := core.SynthesizeTrace(decoded, core.Options{Seed: 1, Scale: 10})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []*core.Result{ref, scaled} {
				refProg := sha256.Sum256(want.Program.Encode())
				refSrc := sha256.Sum256([]byte(want.Generated.CSource()))
				refFP := core.OptionsFingerprint(want.Opts)
				scale := want.Opts.Scale
				prefix := ""
				if scale != 1 {
					prefix = fmt.Sprintf("scale%g/", scale)
				}

				rng := rand.New(rand.NewSource(42))
				for _, chunk := range chunkSizes {
					for oi, order := range [][]int{nil, rng.Perm(ranks)} {
						for _, par := range pars {
							name := fmt.Sprintf("%schunk%d/order%d/par%d", prefix, chunk, oi, par)
							t.Run(name, func(t *testing.T) {
								sOpts := core.Options{Ranks: ranks, Seed: 1, Parallelism: par, Scale: scale}
								in, err := core.NewIngest(ranks, sOpts)
								if err != nil {
									t.Fatal(err)
								}
								streamTrace(t, in, ref.Trace, chunk, order)
								res, err := core.SynthesizeIngest(in, sOpts)
								if err != nil {
									t.Fatal(err)
								}
								if got := sha256.Sum256(res.Program.Encode()); got != refProg {
									t.Error("streamed program sha256 differs from batch")
								}
								if got := sha256.Sum256([]byte(res.Generated.CSource())); got != refSrc {
									t.Error("streamed C source sha256 differs from batch")
								}
								if fp := core.OptionsFingerprint(res.Opts); fp != refFP {
									t.Errorf("streamed fingerprint %s != batch %s", fp, refFP)
								}
							})
						}
					}
				}
			}
		})
	}
}

// The random-program corpus widens the sweep past the paper apps. Each
// seed gets one batch synthesis and one streamed synthesis at a
// seed-rotated point of the chunk × order × parallelism cube, so the
// corpus as a whole covers the cube while each case stays cheap.
func TestStreamedSynthesisMatchesBatchRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			const ranks = 8
			opts := core.Options{Ranks: ranks, Seed: uint64(seed)}
			ref, err := core.Synthesize(proxy.RandomProgram(seed, 12), opts)
			if err != nil {
				t.Fatal(err)
			}

			chunk := chunkSizes[int(seed)%len(chunkSizes)]
			var order []int
			if seed%2 == 0 {
				order = rand.New(rand.NewSource(seed)).Perm(ranks)
			}
			par := 1
			if seed%3 == 0 {
				par = runtime.GOMAXPROCS(0)
			}
			sOpts := core.Options{Ranks: ranks, Seed: uint64(seed), Parallelism: par}
			in, err := core.NewIngest(ranks, sOpts)
			if err != nil {
				t.Fatal(err)
			}
			streamTrace(t, in, ref.Trace, chunk, order)
			res, err := core.SynthesizeIngest(in, sOpts)
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(res.Program.Encode()) != sha256.Sum256(ref.Program.Encode()) {
				t.Error("streamed program sha256 differs from batch")
			}
			if sha256.Sum256([]byte(res.Generated.CSource())) != sha256.Sum256([]byte(ref.Generated.CSource())) {
				t.Error("streamed C source sha256 differs from batch")
			}
		})
	}
}

// Concurrent rank uploads — one goroutine per rank, misaligned chunks —
// through the full synthesis pipeline. Under -race this is the harness's
// locking proof; the output must still match batch exactly.
func TestStreamedSynthesisConcurrentUploads(t *testing.T) {
	spec := apps.All()[0]
	ranks := 0
	for r := 8; r <= 16; r++ {
		if spec.ValidRanks(r) {
			ranks = r
			break
		}
	}
	fn, err := spec.Build(apps.Params{Ranks: ranks, Iters: 2, WorkScale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Ranks: ranks, Seed: 1}
	ref, err := core.Synthesize(fn, opts)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.NewIngest(ranks, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r, rt := range ref.Trace.Ranks {
		wg.Add(1)
		go func(r int, stream []byte) {
			defer wg.Done()
			ri := in.Rank(r)
			for len(stream) > 0 {
				n := 37
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
	res, err := core.SynthesizeIngest(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Program.Encode(), ref.Program.Encode()) {
		t.Error("concurrently-streamed program differs from batch")
	}
	if res.Generated.CSource() != ref.Generated.CSource() {
		t.Error("concurrently-streamed C source differs from batch")
	}
}
