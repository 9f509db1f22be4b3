package blocks

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"siesta/internal/perfmodel"
	"siesta/internal/platform"
)

func TestQuantize(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{123456789012, 123456789000},
		{1.234567894e-3, 1.23456789e-3},
		{-98765.43267, -98765.4327},
	}
	for _, c := range cases {
		if got := quantize(c.in); math.Abs(got-c.want) > math.Abs(c.want)*1e-12 {
			t.Errorf("quantize(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	// Quantization is idempotent — required for key stability.
	for _, v := range []float64{3.14159265358979, 1e-300, 7e250, 42} {
		if q := quantize(v); quantize(q) != q {
			t.Errorf("quantize not idempotent at %g", v)
		}
	}
}

func TestCachedSearchMatchesSearchOnQuantizedTarget(t *testing.T) {
	p := platform.A
	bm := MeasureB(p, nil)
	target := perfmodel.Counters{2.000000001e9, 1.1e9, 3.3e8, 1.2e7, 9.9e6, 5.5e5}

	m := NewMemo(16)
	got, err := CachedSearch(m, bm, target)
	if err != nil {
		t.Fatal(err)
	}
	var qt perfmodel.Counters
	for i, v := range target {
		qt[i] = quantize(v)
	}
	want, err := Search(bm, qt)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CachedSearch = %v, Search(quantized) = %v", got, want)
	}

	// Second call must hit and return the identical combination.
	again, err := CachedSearch(m, bm, target)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("cache hit returned a different combination")
	}
	if hits, misses := m.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	// Targets inside the quantization cell share an entry; targets outside
	// do not.
	nudged := target
	nudged[0] *= 1 + 1e-12
	if _, err := CachedSearch(m, bm, nudged); err != nil {
		t.Fatal(err)
	}
	if hits, _ := m.Stats(); hits != 2 {
		t.Fatalf("1e-12 nudge missed the cache (hits=%d)", hits)
	}
	far := target
	far[0] *= 1.5
	if _, err := CachedSearch(m, bm, far); err != nil {
		t.Fatal(err)
	}
	if _, misses := m.Stats(); misses != 2 {
		t.Fatalf("distinct target hit the cache (misses=%d)", misses)
	}
}

func TestMemoKeyedByBMatrix(t *testing.T) {
	pa, pb := platform.A, platform.B
	bma, bmb := MeasureB(pa, nil), MeasureB(pb, nil)
	target := perfmodel.Counters{1e9, 5e8, 2e8, 1e7, 5e6, 1e5}

	m := NewMemo(16)
	ca, err := CachedSearch(m, bma, target)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CachedSearch(m, bmb, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := m.Stats(); misses != 2 {
		t.Fatal("different platforms must occupy different cache entries")
	}
	if wantA, _ := Search(bma, target); ca != wantA {
		t.Fatal("platform A result corrupted by platform B entry")
	}
	if wantB, _ := Search(bmb, target); cb != wantB {
		t.Fatal("platform B result corrupted by platform A entry")
	}
}

func TestMemoEviction(t *testing.T) {
	p := platform.A
	bm := MeasureB(p, nil)
	m := NewMemo(4)
	for i := 0; i < 10; i++ {
		target := perfmodel.Counters{float64(i+1) * 1e8, 5e8, 2e8, 1e7, 5e6, 1e5}
		if _, err := CachedSearch(m, bm, target); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 4 {
		t.Fatalf("memo holds %d entries, cap is 4", m.Len())
	}
}

// Concurrent lookups of the same and different targets must be race-free
// (run under -race) and all agree with the cold solve.
func TestMemoConcurrent(t *testing.T) {
	p := platform.A
	bm := MeasureB(p, nil)
	targets := make([]perfmodel.Counters, 8)
	want := make([]Combination, 8)
	for i := range targets {
		targets[i] = perfmodel.Counters{float64(i+1) * 3e8, 1e9, 2e8, 1e7, 5e6, 1e5}
		var qt perfmodel.Counters
		for j, v := range targets[i] {
			qt[j] = quantize(v)
		}
		c, err := Search(bm, qt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	m := NewMemo(16)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (w + i) % len(targets)
				got, err := CachedSearch(m, bm, targets[k])
				if err != nil {
					errs <- err
					return
				}
				if got != want[k] {
					t.Errorf("worker %d target %d: combination differs from cold solve", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Lookups count and order the memo as they are made, before any solve:
// solving them out of order leaves the snapshot the serial loop leaves.
func TestLookupOrdersTheMemoBeforeSolving(t *testing.T) {
	bm := MeasureB(platform.A, nil)
	targets := []perfmodel.Counters{
		{3e8, 1e9, 2e8, 1e7, 5e6, 1e5},
		{6e8, 1e9, 2e8, 1e7, 5e6, 1e5},
		{3e8, 1e9, 2e8, 1e7, 5e6, 1e5},
	}
	serial := NewMemo(0)
	for _, tg := range targets {
		if _, err := CachedSearch(serial, bm, tg); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMemo(0)
	var ls []Lookup
	for _, tg := range targets {
		ls = append(ls, m.Lookup(bm, tg))
	}
	if h, mi := m.Stats(); h != 1 || mi != 2 {
		t.Fatalf("lookups counted %d hits / %d misses, want 1 / 2", h, mi)
	}
	if got := m.Export(); !bytes.Equal(got, NewMemo(0).Export()) {
		t.Error("Export included unsolved entries")
	}
	for i := len(ls) - 1; i >= 0; i-- {
		if _, err := ls[i].Result(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(m.Export(), serial.Export()) {
		t.Error("snapshot after out-of-order solves differs from the serial loop's")
	}
}

// A released miss leaves the memo; a hit already holding its entry still
// gets the cold solve's combination.
func TestLookupRelease(t *testing.T) {
	bm := MeasureB(platform.A, nil)
	tg := perfmodel.Counters{3e8, 1e9, 2e8, 1e7, 5e6, 1e5}
	m := NewMemo(0)
	miss, hit := m.Lookup(bm, tg), m.Lookup(bm, tg)
	miss.Release()
	if m.Len() != 0 {
		t.Fatalf("released miss left %d entries", m.Len())
	}
	got, err := hit.Result()
	want, _ := CachedSearch(NewMemo(0), bm, tg)
	if err != nil || got != want {
		t.Errorf("hit on a released entry: %v, %v; want %v", got, err, want)
	}
}
