package main

import (
	"runtime"
	"strconv"
	"sync"
	"time"
)

// loopResult is one closed-loop run.
type loopResult struct {
	results    []jobResult
	wall       time.Duration
	peakHeapMB float64
}

func (l *loopResult) failed() int {
	n := 0
	for _, r := range l.results {
		if r.err != nil {
			n++
		}
	}
	return n
}

// latencies of the jobs that succeeded, in milliseconds.
func (l *loopResult) latencies() []float64 {
	var out []float64
	for _, r := range l.results {
		if r.err == nil {
			out = append(out, float64(r.latency.Nanoseconds())/1e6)
		}
	}
	return out
}

// eventsPerS is the trace events of completed jobs per second of the
// timed region.
func (l *loopResult) eventsPerS() float64 {
	var ev float64
	for _, r := range l.results {
		if r.err == nil {
			ev += float64(r.events)
		}
	}
	return ratio(ev, l.wall.Seconds())
}

// heapInterval is how often the peak-heap sampler reads the live heap.
const heapInterval = 5 * time.Millisecond

// closedLoop runs the workload's clients for d: each client issues its
// next request only after the previous one completed, until d has passed
// and the client has finished its current pass over the panel. Ending on
// a pass boundary gives every run the same mix of inputs, so the latency
// percentiles compare like with like; it stretches the timed region by
// less than one pass. The timed region ends when the last client returns.
// A non-nil rec makes this the traced run.
func closedLoop(fx fixture, w *workload, seed uint64, d time.Duration, rec *spanRecorder) *loopResult {
	runtime.GC() // start every loop from a collected heap
	perClient := make([][]jobResult, w.clients)
	var passBounds []time.Time // client 0's pass starts, then its end
	heap := startHeapSampler(heapInterval)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := newSequence(w.name, seed, c, fx.panelSize())
			pass := seq.passLen()
			for i := 0; i%pass != 0 || time.Now().Before(deadline); i++ {
				if c == 0 && i%pass == 0 {
					passBounds = append(passBounds, time.Now())
				}
				req := seq.at(i)
				var jt *jobTimer
				if rec != nil {
					jt = newJobTimer(rec, jobID(c, i))
				}
				r := fx.job(req, jt)
				if jt != nil {
					r.ledger = jt.t
				}
				perClient[c] = append(perClient[c], r)
			}
			if c == 0 {
				passBounds = append(passBounds, time.Now())
			}
		}(c)
	}
	wg.Wait()
	l := &loopResult{wall: time.Since(start), peakHeapMB: peakPerWindow(heap.finish(), passBounds)}
	for _, rs := range perClient {
		l.results = append(l.results, rs...)
	}
	return l
}

func jobID(client, i int) string {
	return "c" + strconv.Itoa(client) + "-" + strconv.Itoa(i)
}
