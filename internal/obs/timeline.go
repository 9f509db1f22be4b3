package obs

import (
	"sort"

	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// Timeline records one simulated run as per-rank virtual-time event
// sequences: an mpi.Interceptor producing a span for every MPI call and
// computation region, flow edges for point-to-point message matches, and
// "coll" spans marking collective barriers. It is attached to a run via
// mpi.Config.Interceptor and, unlike trace.Recorder, charges no
// instrumentation cost — the observed run's virtual times are bit-identical
// to an unobserved one.
//
// Interceptor methods run on the owning rank's goroutine and write only
// that rank's state, so recording needs no locks; Events and the exporters
// must only be called after the run completes.
type Timeline struct {
	name  string
	index int // position within the owning tracer, for flow-id uniqueness
	ranks []tlRank
}

type tlRank struct {
	events []Event
	// lastFlow dedups flow-end emission per request id: a persistent
	// request completes once per Start, and each completion must end its
	// own message edge exactly once.
	lastFlow map[int]int
	// one is completedRecvs' scratch for a call that completes a single
	// request.
	one [1]mpi.Req
}

// NewTimeline registers a runtime timeline for a run over numRanks ranks.
// Returns nil on a nil tracer or one built WithoutTimelines; callers must
// check before assigning to mpi.Config.Interceptor — a typed-nil *Timeline
// stored in the interface is not a disabled interceptor.
func (t *Tracer) NewTimeline(name string, numRanks int) *Timeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	off := t.noTimelines
	t.mu.Unlock()
	if off {
		return nil
	}
	tl := &Timeline{name: name, ranks: make([]tlRank, numRanks)}
	for i := range tl.ranks {
		tl.ranks[i].lastFlow = make(map[int]int)
	}
	t.mu.Lock()
	tl.index = len(t.timelines)
	t.timelines = append(t.timelines, tl)
	t.mu.Unlock()
	return tl
}

// Name reports the timeline's label ("baseline", "replay", ...).
func (tl *Timeline) Name() string { return tl.name }

// NumRanks reports the number of rank tracks.
func (tl *Timeline) NumRanks() int { return len(tl.ranks) }

// Events returns all events merged rank-major, each rank's events in
// record order. The result is deterministic for a deterministic run, which
// is what the determinism suite compares across worker counts.
func (tl *Timeline) Events() []Event {
	if tl == nil {
		return nil
	}
	var out []Event
	for i := range tl.ranks {
		out = append(out, tl.ranks[i].events...)
	}
	return out
}

// RankEvents returns one rank's events in record order.
func (tl *Timeline) RankEvents(rank int) []Event {
	if tl == nil {
		return nil
	}
	return tl.ranks[rank].events
}

// Category buckets for timeline spans. Comm categories (everything except
// CatCompute) sum to the rank's CommTime; CatCompute sums to ComputeTime.
const (
	CatP2P     = "p2p"
	CatColl    = "coll"
	CatSync    = "sync"
	CatIO      = "io"
	CatCompute = "compute"
	CatMsg     = "msg" // flow edges
)

// categories is the timeline category of each kind of MPI call.
var categories = [...]string{mpicall.KindP2P: CatP2P, mpicall.KindCompletion: CatSync,
	mpicall.KindCollective: CatColl, mpicall.KindComm: CatColl, mpicall.KindFile: CatIO,
	mpicall.KindCompute: CatCompute}

// flowID builds a trace-global message-edge id from the timeline index,
// the world ranks of the endpoints, and the per-(src,dst) channel sequence
// number the runtime assigned to the message.
func (tl *Timeline) flowID(src, dst, seq int) uint64 {
	return uint64(tl.index+1)<<60 |
		uint64(src&0xFFFFF)<<40 |
		uint64(dst&0xFFFFF)<<20 |
		uint64(seq&0xFFFFF)
}

// BeforeCall implements mpi.Interceptor.
func (tl *Timeline) BeforeCall(r *mpi.Rank, call *mpi.Call) {}

// AfterCall implements mpi.Interceptor: one span per MPI call, plus flow
// edges for any messages the call sent or completed.
func (tl *Timeline) AfterCall(r *mpi.Rank, call *mpi.Call) {
	me := r.Rank()
	rs := &tl.ranks[me]
	cat := categories[call.Func.Desc().Kind]
	ev := Event{
		Name:  call.Func.String(),
		Cat:   cat,
		Kind:  KindSpan,
		Rank:  me,
		Start: float64(call.Start),
		Dur:   float64(call.End.Sub(call.Start)),
	}
	if call.Bytes > 0 {
		ev.Attrs = []Attr{Int("bytes", call.Bytes)}
	}
	rs.events = append(rs.events, ev)

	// Send side of a message edge: the runtime stamped the destination
	// world rank and the channel sequence it assigned to the posted
	// message (all send paths, including persistent MPI_Start, which
	// carries no Comm/Dest on its Call).
	if call.SentSeq > 0 {
		rs.events = append(rs.events, Event{
			Name: "msg", Cat: CatMsg, Kind: KindFlowStart, Rank: me,
			Start: float64(call.Start),
			Flow:  tl.flowID(me, call.SentDst, call.SentSeq-1),
			Attrs: []Attr{Int("bytes", call.SentBytes)},
		})
	}

	// Receive side: blocking receives carry the matched message identity
	// on the call; wait/test calls resolve it through their requests.
	if call.RecvSeq > 0 {
		tl.flowEnd(rs, me, call.RecvSrcWorld, call.RecvSeq-1, float64(call.End))
	}
	for _, req := range rs.completedRecvs(call) {
		if src, seq, ok := req.MatchedMessage(); ok && rs.lastFlow[req.ID()] != seq+1 {
			rs.lastFlow[req.ID()] = seq + 1
			tl.flowEnd(rs, me, src, seq, float64(call.End))
		}
	}
}

// flowEnd appends the receive end of a message edge.
func (tl *Timeline) flowEnd(rs *tlRank, me, src, seq int, at float64) {
	rs.events = append(rs.events, Event{
		Name: "msg", Cat: CatMsg, Kind: KindFlowEnd, Rank: me,
		Start: at,
		Flow:  tl.flowID(src, me, seq),
	})
}

// completedRecvs lists the requests a wait/test call is known to have
// completed by its end. Calls that complete nothing return nil. The call
// frees those requests only after AfterCall, so their handles still
// resolve here.
func (rs *tlRank) completedRecvs(call *mpi.Call) []mpi.Req {
	switch call.Func {
	case mpicall.Wait:
		rs.one[0] = call.Request
		return rs.one[:]
	case mpicall.Waitall:
		return call.Requests
	case mpicall.Waitany:
		if call.CompletedIndex >= 0 && call.CompletedIndex < len(call.Requests) {
			return call.Requests[call.CompletedIndex : call.CompletedIndex+1]
		}
	case mpicall.Test:
		if call.Flag {
			rs.one[0] = call.Request
			return rs.one[:]
		}
	case mpicall.Testall:
		if call.Flag {
			return call.Requests
		}
	}
	return nil
}

// OnCompute implements mpi.Interceptor: one "compute" span per computation
// region (or Elapse pause).
func (tl *Timeline) OnCompute(r *mpi.Rank, k perfmodel.Kernel, c perfmodel.Counters, start, end vtime.Time) {
	rs := &tl.ranks[r.Rank()]
	rs.events = append(rs.events, Event{
		Name:  mpicall.Compute.String(),
		Cat:   CatCompute,
		Kind:  KindSpan,
		Rank:  r.Rank(),
		Start: float64(start),
		Dur:   float64(end.Sub(start)),
	})
}

// MessageTotal is the observed traffic on one (Src, Dst) world-rank channel,
// derived from the timeline's flow edges: Messages/Bytes count send sides
// (FlowStart), Matched counts receive sides (FlowEnd). These are the
// replay-side half of the statics agreement gate: for any run, they must
// equal the send/recv volume matrix statics.Analyze computes from the
// grammar alone.
type MessageTotal struct {
	Src, Dst int
	Messages int64
	Bytes    int64
	Matched  int64
}

// MessageTotals derives the per-(src,dst) traffic matrix from the recorded
// flow edges, sorted by (src, dst). Endpoint ranks are decoded from the
// flow-id bit fields, so the totals cover every send path (including
// persistent MPI_Start).
func (tl *Timeline) MessageTotals() []MessageTotal {
	if tl == nil {
		return nil
	}
	agg := map[[2]int]*MessageTotal{}
	for i := range tl.ranks {
		for _, ev := range tl.ranks[i].events {
			if ev.Cat != CatMsg {
				continue
			}
			src := int(ev.Flow >> 40 & 0xFFFFF)
			dst := int(ev.Flow >> 20 & 0xFFFFF)
			key := [2]int{src, dst}
			mt := agg[key]
			if mt == nil {
				mt = &MessageTotal{Src: src, Dst: dst}
				agg[key] = mt
			}
			switch ev.Kind {
			case KindFlowStart:
				mt.Messages++
				for _, a := range ev.Attrs {
					if a.Key == "bytes" {
						if b, ok := a.Value.(int64); ok {
							mt.Bytes += b
						}
					}
				}
			case KindFlowEnd:
				mt.Matched++
			}
		}
	}
	out := make([]MessageTotal, 0, len(agg))
	for _, mt := range agg { //maporder:ok — sorted below
		out = append(out, *mt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// CallCounts returns one rank's span counts keyed by name ("MPI_Send",
// "MPI_Compute", ...), the per-rank call histogram half of the statics
// agreement gate.
func (tl *Timeline) CallCounts(rank int) map[string]int64 {
	counts := map[string]int64{}
	for _, ev := range tl.ranks[rank].events {
		if ev.Kind == KindSpan {
			counts[ev.Name]++
		}
	}
	return counts
}

// BusyTotals sums one rank's span durations: virtual time inside MPI calls
// (everything but compute) and inside computation regions. For an
// unperturbed run these equal the runtime's CommTime and ComputeTime — the
// agreement the observability tests pin to within a nanosecond.
func (tl *Timeline) BusyTotals(rank int) (comm, compute vtime.Duration) {
	for _, ev := range tl.ranks[rank].events {
		if ev.Kind != KindSpan {
			continue
		}
		if ev.Cat == CatCompute {
			compute += vtime.Duration(ev.Dur)
		} else {
			comm += vtime.Duration(ev.Dur)
		}
	}
	return comm, compute
}
