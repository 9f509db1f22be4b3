package merge

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"siesta/internal/trace"
)

// The rank-class adversaries again, streamed (DESIGN.md §15): a session
// infers once per leaf class and merges once per root class, and must
// still encode exactly what the frozen reference does.

// feedConcurrent streams every rank of tr from its own goroutine, started
// in the given order, in chunkSize-byte pieces (0 = whole stream), so
// ranks of one class reach their end frames at the same time.
func feedConcurrent(t *testing.T, tr *trace.Trace, opts Options, chunkSize int, order []int) *Ingest {
	t.Helper()
	in, err := NewIngest(len(tr.Ranks), tr.Platform, tr.Impl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, r := range order {
		wg.Add(1)
		go func(r int, stream []byte) {
			defer wg.Done()
			for len(stream) > 0 {
				n := chunkSize
				if n <= 0 || n > len(stream) {
					n = len(stream)
				}
				if err := in.Rank(r).Feed(stream[:n]); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				stream = stream[n:]
			}
		}(r, trace.ChunkEncodeRank(tr.Ranks[r]))
	}
	wg.Wait()
	return in
}

// streamedMatchesReference streams tr through an Ingest in 1-byte, 7-byte
// and whole-stream chunks over a shuffled rank order, under each ablation
// at Parallelism 1, 2 and 4. Every session must encode what refBuild does,
// with wantClasses root classes and wantRuns Sequitur runs over leaf ids.
// It returns the last session built.
func streamedMatchesReference(t *testing.T, tr *trace.Trace, base Options, wantClasses, wantRuns int,
	feed func(t *testing.T, tr *trace.Trace, opts Options, chunkSize int, order []int) *Ingest) *Ingest {
	t.Helper()
	order := rand.New(rand.NewSource(int64(len(tr.Ranks)))).Perm(len(tr.Ranks))
	var last *Ingest
	eachReference(t, tr, base, func(name string, opts Options, want []byte) {
		for _, chunk := range []int{1, 7, 0} {
			in := feed(t, tr, opts, chunk, order)
			got, err := in.Build()
			if err != nil {
				t.Fatalf("%s/chunk%d: %v", name, chunk, err)
			}
			if !bytes.Equal(want, got.Encode()) {
				t.Fatalf("%s/chunk%d: streamed session differs from the batch reference", name, chunk)
			}
			if classes, runs := in.ClassCounts(); classes != wantClasses || runs != wantRuns {
				t.Fatalf("%s/chunk%d: %d root classes and %d Sequitur runs, want %d and %d",
					name, chunk, classes, runs, wantClasses, wantRuns)
			}
			last = in
		}
	})
	return last
}

// Equal leaf ids over different records: one leaf class, one inference,
// but two root classes.
func TestStreamedRankClassEqualLeafIdsDifferentRecords(t *testing.T) {
	events := []int{0, 1, 0, 1, 0, 1, 1, 0}
	tr := handTrace(
		[][]*trace.Record{{sendRec(8), sendRec(16)}, {sendRec(8), sendRec(32)}},
		[][]int{events, append([]int(nil), events...)})
	streamedMatchesReference(t, tr, Options{}, 2, 1, feedIngest)
}

// Permuted local tables give three leaf classes, each inferred, whose
// relabeled grammars are equal: one root class.
func TestStreamedRankClassPermutedLocalTables(t *testing.T) {
	a, b, c := sendRec(8), sendRec(16), sendRec(32)
	tr := handTrace(
		[][]*trace.Record{{a, b, c}, {c.Clone(), a.Clone(), b.Clone()}, {b.Clone(), c.Clone(), a.Clone()}},
		[][]int{{0, 1, 2, 0, 1, 2, 2}, {1, 2, 0, 1, 2, 0, 0}, {2, 0, 1, 2, 0, 1, 1}})
	streamedMatchesReference(t, tr, Options{}, 1, 3, feedIngest)
}

// Ranks 1..3 share a leaf class and a non-injective leaf→root map: the
// class is re-inferred once, not once per rank.
func TestStreamedRankClassReinferredOnce(t *testing.T) {
	tr := collapseClassesTrace(t)
	in := streamedMatchesReference(t, tr, Options{ClusterThreshold: 0.3}, 2, 2, feedIngest)
	if n := in.Reinferred(); n != 1 {
		t.Fatalf("%d re-inferences, want 1", n)
	}
}

// Eight ranks of two classes reach their end frames concurrently: each
// class is founded and inferred exactly once (run under -race, this also
// checks the class table's locking).
func TestStreamedRankClassConcurrentEnds(t *testing.T) {
	patterns := [][]int{
		{0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 0, 1, 2, 3},
		{0, 1, 0, 1, 4, 0, 1, 0, 1, 4, 2},
	}
	tr := patternTrace(patterns, []int{0, 1, 0, 1, 0, 0, 1, 0}, 5)
	streamedMatchesReference(t, tr, Options{}, 2, 2, feedConcurrent)
}

// A rank longer than deferCap infers online as its own leaf class, so the
// two long ranks cost two inferences but still form one root class; the
// short ranks share one. Batch, which holds every sequence, infers each
// distinct leaf sequence once.
func TestStreamedRankClassPastDeferCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	long := make([]int, deferCap+100)
	for i := range long {
		long[i] = rng.Intn(8)
	}
	tr := patternTrace([][]int{long, {0, 1, 0, 1, 2}}, []int{0, 1, 0, 1}, 8)
	streamedMatchesReference(t, tr, Options{}, 2, 3, feedIngest)
	in := batchIngest(tr, Options{})
	if _, err := in.Build(); err != nil {
		t.Fatal(err)
	}
	if classes, runs := in.ClassCounts(); classes != 2 || runs != 2 {
		t.Fatalf("batch: %d root classes and %d Sequitur runs, want 2 and 2", classes, runs)
	}
}

// A streamed session's losslessness self-check compares each rank's
// expansion with the leaf ids it ingested, so it sees a corrupted
// leaf-class grammar whose expansion keeps its length: two distinct
// terminals swapped in the class's main rule must fail Build.
func TestStreamedSelfCheckCatchesSameLengthCorruption(t *testing.T) {
	tr := patternTrace([][]int{{0, 1, 2, 0, 1, 2, 3, 4}, {0, 1, 0, 1, 4}}, []int{0, 1, 0, 1}, 5)
	in := feedIngest(t, tr, Options{}, 0, nil)
	main := in.ranks[0].class.g.Rules[0]
	swapped := false
	for i := 0; i < len(main) && !swapped; i++ {
		for j := i + 1; j < len(main); j++ {
			if !main[i].IsRule && !main[j].IsRule && main[i].Ref != main[j].Ref {
				main[i], main[j] = main[j], main[i]
				swapped = true
				break
			}
		}
	}
	if !swapped {
		t.Fatalf("main rule %v has no two distinct terminals", main)
	}
	if _, err := in.Build(); err == nil || !strings.Contains(err.Error(), "diverges from trace") {
		t.Fatalf("Build over a corrupted leaf grammar: err = %v, want a divergence", err)
	}
}
