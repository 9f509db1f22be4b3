package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above the tail percentile the
// benchmark reports: the highest percentile still backed by ten
// observations beyond it.
const tailBeyond = 10

// tail is a latency summary: the median plus the tail percentile.
type tail struct {
	N          int     // samples
	P50        float64 // median
	Tail       float64 // the Percentile-th percentile
	Percentile float64 // 100×(N−tailBeyond)/N, the highest with tailBeyond samples beyond it
	Enough     bool    // false when N ≤ tailBeyond and the maximum stands in for the tail
}

// summarize estimates the median and the highest percentile that has at
// least tailBeyond samples beyond it, 100×(N−tailBeyond)/N. Both use the
// Harrell–Davis quantile estimator, a weighted mean of all order
// statistics with weights concentrated around the quantile. Job latencies
// cluster by input — the panel is 26 inputs of very different cost, dealt
// in whole passes — so a single order statistic often falls on the gap
// between two clusters and jumps between them from run to run; the
// weighted estimate moves smoothly instead. With too few samples for the
// tail the maximum is reported and Enough is false.
func summarize(samples []float64) tail {
	n := len(samples)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := tail{N: n, P50: harrellDavis(s, 0.5)}
	if n > tailBeyond {
		p := float64(n-tailBeyond) / float64(n)
		t.Tail, t.Percentile, t.Enough = harrellDavis(s, p), 100*p, true
	} else {
		t.Tail = s[n-1]
		t.Percentile = 100 * float64(n-1) / float64(n)
	}
	return t
}

// harrellDavis is the Harrell–Davis estimate of the p-quantile of sorted
// samples: Σ w_i x_(i) with w_i = I_{i/n}(a,b) − I_{(i−1)/n}(a,b),
// a = p(n+1), b = (1−p)(n+1), I the regularized incomplete beta function.
func harrellDavis(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var q, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		q += (cur - prev) * sorted[i-1]
		prev = cur
	}
	return q
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes §6.4.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 500; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// median of an already sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf sorts a copy and returns its median.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

// heapSampler reads the live Go heap at a fixed interval while running.
// The live heap is the runtime's /gc/heap/live:bytes metric — heap memory
// marked live by the most recent GC — so garbage not yet collected does
// not count.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample // owned by the sampling goroutine until done
}

type heapSample struct {
	at   time.Time
	live uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func readLiveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler samples every interval until finish is called.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			h.samples = append(h.samples, heapSample{time.Now(), readLiveHeap(s)})
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns its samples.
func (h *heapSampler) finish() []heapSample {
	close(h.stop)
	<-h.done
	return h.samples
}

// peakPerWindow returns, in MiB, the median over consecutive windows
// [bounds[k], bounds[k+1]] of the highest live heap sampled in each. A
// single maximum over the whole run depends on which GC happened to land
// on the largest job's high point; the median of per-pass peaks does not.
// With fewer than two bounds it returns the overall maximum.
func peakPerWindow(samples []heapSample, bounds []time.Time) float64 {
	var peaks []float64
	for k := 0; k+1 < len(bounds); k++ {
		var peak uint64
		for _, s := range samples {
			if !s.at.Before(bounds[k]) && !s.at.After(bounds[k+1]) && s.live > peak {
				peak = s.live
			}
		}
		peaks = append(peaks, float64(peak))
	}
	if len(peaks) == 0 {
		var peak uint64
		for _, s := range samples {
			peak = max(peak, s.live)
		}
		peaks = append(peaks, float64(peak))
	}
	return medianOf(peaks) / (1 << 20)
}
