package sequitur

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// diffBuild feeds tokens to the production builder and the frozen
// reference side by side. It compares NumRules after every token, the
// mid-stream Grammar at every snapshotEvery-th token (0: only the final one),
// and, when stepVerify is set, checks the builder's invariants after every
// Append. With run-length off it never calls verify: that mode can repeat a
// digram (see TestNoRunLengthRepeatedDigram), and the reference comparison
// already pins its grammar. It returns the builder's grammar and the first difference as a
// message, or "".
func diffBuild(tokens []int, runLength bool, snapshotEvery int, stepVerify bool) (*Grammar, string) {
	b := NewWithOptions(runLength)
	ref := newReferenceWithOptions(runLength)
	for i, tok := range tokens {
		b.Append(tok)
		ref.Append(tok)
		if b.NumRules() != ref.NumRules() {
			return nil, fmt.Sprintf("after %d tokens: NumRules %d, reference %d", i+1, b.NumRules(), ref.NumRules())
		}
		if stepVerify {
			if err := b.verify(); err != nil {
				return nil, fmt.Sprintf("after %d tokens: %v", i+1, err)
			}
		}
		if snapshotEvery > 0 && (i+1)%snapshotEvery == 0 {
			if got, want := b.Grammar(), ref.Grammar(); !reflect.DeepEqual(got, want) {
				return nil, fmt.Sprintf("snapshot after %d tokens:\n%s\nreference:\n%s", i+1, got, want)
			}
		}
	}
	g := b.Grammar()
	if got, want := g.String(), ref.Grammar().String(); got != want {
		return nil, fmt.Sprintf("final grammar:\n%s\nreference:\n%s", got, want)
	}
	if runLength {
		if err := b.verify(); err != nil {
			return nil, fmt.Sprintf("final: %v", err)
		}
	}
	return g, ""
}

// randomSequence draws either uniform noise over a small alphabet or a
// nested repetition of random phrases (the shape of real traces).
func randomSequence(rng *rand.Rand) []int {
	if rng.Intn(2) == 0 {
		tokens := make([]int, 1+rng.Intn(300))
		alpha := 1 + rng.Intn(8)
		for i := range tokens {
			tokens[i] = rng.Intn(alpha)
		}
		return tokens
	}
	var gen func(depth int) []int
	gen = func(depth int) []int {
		if depth == 0 || rng.Intn(3) == 0 {
			out := make([]int, 1+rng.Intn(4))
			for i := range out {
				out[i] = rng.Intn(6)
			}
			return out
		}
		var out []int
		for parts := 1 + rng.Intn(3); parts > 0; parts-- {
			out = append(out, repeat(gen(depth-1), 1+rng.Intn(5))...)
		}
		return out
	}
	tokens := gen(4)
	if len(tokens) > 600 {
		tokens = tokens[:600]
	}
	return tokens
}

// TestDifferentialRandom: the production builder reproduces the frozen
// reference — grammar, rule count and every mid-stream snapshot — on
// random irregular and periodic sequences, with run-length on and off,
// and its invariants (index liveness, rule counter) hold after every
// Append of the run-length builds.
func TestDifferentialRandom(t *testing.T) {
	trials := 3000
	if testing.Short() || raceEnabled {
		trials = 300
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < trials; trial++ {
		tokens := randomSequence(rng)
		runLength := trial%4 != 3
		if _, msg := diffBuild(tokens, runLength, 17, runLength); msg != "" {
			t.Fatalf("trial %d (run-length %v, %d tokens %v): %s", trial, runLength, len(tokens), tokens, msg)
		}
	}
}

// FuzzSequitur turns the fuzz input into tokens (one byte each, over a
// small alphabet so digrams repeat) and requires the production builder to
// match the reference, expand back to the input, and, with run-length on,
// keep its invariants.
func FuzzSequitur(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{7, 7, 7, 8, 7, 7, 8, 7, 8})
	f.Add([]byte{1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 4096 {
			raw = raw[:4096]
		}
		tokens := make([]int, len(raw))
		for i, v := range raw {
			tokens[i] = int(v % 7)
		}
		// The top bit of the first byte picks the run-length variant.
		runLength := len(raw) == 0 || raw[0]&0x80 == 0
		g, msg := diffBuild(tokens, runLength, 0, false)
		if msg != "" {
			t.Fatalf("run-length %v, tokens %v: %s", runLength, tokens, msg)
		}
		if got := g.Expand(); len(tokens) > 0 && !reflect.DeepEqual(got, tokens) {
			t.Fatalf("Expand = %v, want %v", got, tokens)
		}
	})
}

// TestAppendAllocs pins the kernel's allocation rate: symbols are recycled
// at Append boundaries and the digram index has no per-entry allocation,
// so a long periodic build allocates little beyond its new rules — at most
// two allocations per token (the map-based builder made six).
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	tokens := repeat([]int{0, 1, 2, 1, 3, 4, 4, 5}, 4096)
	allocs := testing.AllocsPerRun(5, func() { New().AppendAll(tokens) })
	if perToken := allocs / float64(len(tokens)); perToken > 2 {
		t.Fatalf("%.0f allocations for %d tokens = %.3f per token, want ≤ 2", allocs, len(tokens), perToken)
	}
}
