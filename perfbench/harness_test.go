package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"siesta/internal/server/cache"
)

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	n := len(panel())
	for _, w := range workloads {
		for client := 0; client < w.clients; client++ {
			a := newSequence(w.name, 7, client, n)
			b := newSequence(w.name, 7, client, n)
			other := newSequence(w.name, 8, client, n)
			differs := false
			for i := 0; i < 3*n; i++ {
				ra, rb, ro := a.at(i), b.at(i), other.at(i)
				if ra != rb {
					t.Fatalf("%s client %d request %d: %+v then %+v for the same seed", w.name, client, i, ra, rb)
				}
				if ra != ro {
					differs = true
				}
			}
			if !differs {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same sequence", w.name, client)
			}
		}
	}
}

func TestSequenceDealsWholePassesWithFreshSeeds(t *testing.T) {
	n := len(panel())
	q := newSequence("serve-stream", 3, 1, n)
	seeds := map[uint64]bool{}
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for i := pass * n; i < (pass+1)*n; i++ {
			r := q.at(i)
			seen[r.Entry] = true
			if seeds[r.Seed] {
				t.Fatalf("request %d reuses seed %d", i, r.Seed)
			}
			seeds[r.Seed] = true
		}
		if len(seen) != n {
			t.Errorf("pass %d covers %d of %d entries", pass, len(seen), n)
		}
	}
}

func TestOneshotRepeatsOneRequestInFour(t *testing.T) {
	q := newSequence("serve-oneshot", 5, 0, len(panel()))
	repeats := 0
	for i := 0; i < 400; i++ {
		r := q.at(i)
		if r.RepeatOf < 0 {
			if !r.Analyze {
				t.Fatalf("fresh request %d does not ask for the analysis", i)
			}
			continue
		}
		repeats++
		orig := q.at(r.RepeatOf)
		if r.RepeatOf >= i || i-r.RepeatOf > repeatEvery-1 || orig.RepeatOf >= 0 {
			t.Fatalf("request %d repeats %d, want one of the three fresh requests before it", i, r.RepeatOf)
		}
		if r.Entry != orig.Entry || r.Seed != orig.Seed || r.Analyze {
			t.Fatalf("request %d = %+v is not a verbatim cache-hitting repeat of %+v", i, r, orig)
		}
	}
	if repeats != 100 {
		t.Errorf("%d repeats in 400 requests, want 100", repeats)
	}
}

func TestTailIsTheHighestPercentileWithTenBeyond(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- { // unsorted input
		s = append(s, float64(i))
	}
	got := summarize(s)
	if got.N != 100 || math.Abs(got.P50-50.5) > 1e-9 || got.Percentile != 90 || !got.Enough {
		t.Errorf("summarize(1..100) = %+v, want N 100, p50 50.5, tail at p90", got)
	}
	beyond := 0
	for _, v := range s {
		if v > got.Tail {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("tail %.3f has %d samples beyond it, want %d", got.Tail, beyond, tailBeyond)
	}

	got = summarize(s[:11])
	if math.Abs(got.Percentile-100.0/11) > 1e-9 || !got.Enough {
		t.Errorf("11 samples: %+v, want the tail at p9.09", got)
	}
	got = summarize([]float64{3, 1, 2})
	if got.Enough || got.Tail != 3 || got.N != 3 {
		t.Errorf("3 samples: %+v, want the maximum and Enough false", got)
	}
}

func TestHarrellDavisMovesSmoothlyAcrossClusters(t *testing.T) {
	if v := betaInc(2, 2, 0.5); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("I_0.5(2,2) = %v, want 0.5", v)
	}
	if v := betaInc(1, 1, 0.3); math.Abs(v-0.3) > 1e-12 {
		t.Errorf("I_0.3(1,1) = %v, want 0.3", v)
	}
	// Two clusters meeting at the median: the order statistics jump from
	// 10 to 40 when one sample of the upper cluster speeds up; the
	// estimate moves by a fraction of that.
	var a, b []float64
	for i := 0; i < 50; i++ {
		a = append(a, 10+float64(i%5)*0.1)
		b = append(b, 40+float64(i%5)*0.1)
	}
	s1 := append(append([]float64(nil), a...), b...)
	s2 := append(append([]float64(nil), a...), b...)
	s2[50] = 9 // one upper-cluster sample moves below the lower cluster
	m1, m2 := summarize(s1).P50, summarize(s2).P50
	if m1 < 10 || m1 > 40 || math.Abs(m2-m1) > 10 {
		t.Errorf("median estimates %.3f then %.3f: want a value between the clusters moving smoothly", m1, m2)
	}
}

func TestOutputCheckFlagsAFlippedByte(t *testing.T) {
	want, err := json.Marshal(&cache.Artifact{App: "trace", Ranks: 4, CSource: "int main(void) { return 0; }\n", SizeC: 42})
	if err != nil {
		t.Fatal(err)
	}
	served := func(src string) []byte {
		b, err := json.Marshal(&cache.Artifact{Key: "ingest-key", App: "trace", Ranks: 4, CSource: src, SizeC: 42})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := "int main(void) { return 0; }\n"
	if size, err := checkArtifact(want, served(good)); err != nil || size != 42 {
		t.Fatalf("identical artifact under another key: size %d, %v", size, err)
	}
	flipped := []byte(good)
	flipped[5] ^= 0x01
	if _, err := checkArtifact(want, served(string(flipped))); err == nil {
		t.Error("artifact with one flipped byte passed the output check")
	}

	ref := sha256Of(good)
	e := panelEntry{App: "CG", Ranks: 16}
	if err := checkSynthOutput(e, good, ref, fidelity{ReplayErr: 0.01}); err != nil {
		t.Fatalf("matching C source flagged: %v", err)
	}
	if err := checkSynthOutput(e, string(flipped), ref, fidelity{ReplayErr: 0.01}); err == nil {
		t.Error("C source with one flipped byte passed the output check")
	}
	if err := checkSynthOutput(e, good, ref, fidelity{ReplayErr: 0.2}); err == nil {
		t.Error("replay error above the Table 3 bound passed the output check")
	}
}

func TestResidueIsWallMinusBlockingLayers(t *testing.T) {
	rec := newSpanRecorder()
	jt := newJobTimer(rec, "j")
	start := time.Now()
	b1 := jt.blocking("merge.build_ns", "merge.Build", func() { time.Sleep(2 * time.Millisecond) })
	b2 := jt.blocking("check.verify_ns", "check.Verify", func() { time.Sleep(time.Millisecond) })
	end := time.Now()
	jt.side("merge.globalize_ns", "merge.GlobalizeParallel", func() { time.Sleep(time.Millisecond) })
	jt.end(start, end)

	wantResidue := float64((end.Sub(start) - b1 - b2).Nanoseconds()) / 1e6
	var got float64
	for _, m := range layerMetrics {
		if m.Name == "core.residue_ms" {
			got = m.value(jt.t)
		}
	}
	if math.Abs(got-wantResidue) > 1e-9 {
		t.Errorf("residue %.6f ms, want wall − blocking = %.6f ms", got, wantResidue)
	}
	if got < 0 {
		t.Errorf("residue %.6f ms is negative for sequential calls inside the wall", got)
	}
	if jt.t["merge.globalize_ns"] == 0 || jt.t["core.blocking_ns"] != float64((b1+b2).Nanoseconds()) {
		t.Errorf("side call leaked into the blocking path: %v", jt.t)
	}

	// Two jobs: the residue is a mean per job.
	tl := tally{"jobs": 2, "core.wall_ns": 10e6, "core.blocking_ns": 7e6}
	for _, m := range layerMetrics {
		if m.Name == "core.residue_ms" && m.value(tl) != 1.5 {
			t.Errorf("residue of 3 ms over 2 jobs = %v, want 1.5", m.value(tl))
		}
	}
	if len(rec.spans) != 4 || rec.spans[0].Name != "job" || rec.spans[1].Parent != rec.spans[0].ID {
		t.Errorf("spans %+v: want the job span first and the calls under it", rec.spans)
	}
}

func TestCapacityRefusesMoreClientsOrSlotsThanProcessors(t *testing.T) {
	w := &workload{name: "w", clients: 2, slots: 2}
	if err := checkCapacity(w, 2); err != nil {
		t.Errorf("2 clients, 2 slots on 2 processors refused: %v", err)
	}
	if err := checkCapacity(w, 1); err == nil {
		t.Error("2 clients on 1 processor accepted")
	}
}

func TestPassesDealEveryEntryEqually(t *testing.T) {
	n := len(panel())
	for _, w := range workloads {
		q := newSequence(w.name, 9, 0, n)
		count := map[int]int{}
		fresh := 0
		for i := 0; i < 2*q.passLen(); i++ {
			if r := q.at(i); r.RepeatOf < 0 {
				count[r.Entry]++
				fresh++
			}
		}
		for e := 0; e < n; e++ {
			if count[e] != fresh/n {
				t.Errorf("%s: entry %d dealt %d times in two passes of fresh requests, want %d", w.name, e, count[e], fresh/n)
			}
		}
	}
}

// TestBenchmarkJSONNamesEveryMetric keeps BENCHMARK.json and the result
// line in step: each declared metric is printed, with the declared unit.
func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	e2e := endToEnd(1, &loopResult{wall: time.Second}, fidelitySummary{})
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("result line has %d end-to-end metrics, BENCHMARK.json %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: result line has %+v", m.Name, m.Unit, got)
		}
	}
	layers := layerValues(tally{})
	if len(layers) != len(spec.PerLayer) {
		t.Errorf("result line has %d per-layer metrics, BENCHMARK.json %d", len(layers), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := layers[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s [%s]: result line has %+v", m.Name, m.Unit, got)
		}
	}
}
