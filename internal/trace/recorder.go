package trace

import (
	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

// Wildcard is the relative-rank encoding of MPI_ANY_SOURCE / MPI_ANY_TAG.
const Wildcard = -1 << 19

// Config controls the tracing layer.
type Config struct {
	// ClusterThreshold is the maximum relative distance under which two
	// computation events share a cluster (paper §2.3). Zero selects the
	// default of 5%.
	ClusterThreshold float64
	// PerEventOverhead is the virtual instrumentation cost charged per
	// intercepted MPI call; it is what the paper's "overhead" column
	// measures. Zero selects the default.
	PerEventOverhead vtime.Duration
	// CounterReadOverhead is the extra cost of reading the hardware
	// counters around a computation event. Zero selects the default.
	CounterReadOverhead vtime.Duration
	// DisableOverhead turns instrumentation cost off entirely (for
	// measuring the uninstrumented baseline with the same seeds).
	DisableOverhead bool
	// AbsoluteRanks disables the relative-rank encoding of §2.2 and
	// records point-to-point partners as absolute ranks. This exists for
	// the ablation benchmark that quantifies how much the encoding buys;
	// absolute traces compress and expand losslessly but are NOT meant
	// for proxy replay (the replayer decodes partners relatively).
	AbsoluteRanks bool
}

func (c Config) withDefaults() Config {
	if c.ClusterThreshold == 0 {
		c.ClusterThreshold = 0.05
	}
	if c.PerEventOverhead == 0 {
		c.PerEventOverhead = 900e-9 // wrapper bookkeeping + record append
	}
	if c.CounterReadOverhead == 0 {
		c.CounterReadOverhead = 1500e-9 // PAPI counter read pair
	}
	return c
}

// Recorder is the PMPI-based tracing tool: an mpi.Interceptor that builds a
// per-rank event trace with pool-renamed handles, relative ranks and
// clustered computation events. Create one per traced run.
type Recorder struct {
	cfg   Config
	ranks []*rankState
}

type rankState struct {
	rt       *RankTrace
	reqPool  *Pool
	commPool *Pool
	filePool *Pool
	// spare is the event-record slab: in steady state nearly every traced
	// call repeats an already-interned terminal, so the record the table
	// rejected is reset and handed out again instead of allocating a fresh
	// one per event. This is what keeps the per-event overhead flat once
	// the terminal table saturates.
	spare *Record
	// keyBuf is the pooled scratch the canonical key is rendered into on
	// every commit; the intern probe reads it without building a string.
	// Held from NewRecorder until Trace() releases it.
	keyBuf *ByteBuf
}

// newRecord hands out a Record initialized to the sentinel defaults,
// recycling the previous event's record (slices included) when the table
// deduplicated it.
func (rs *rankState) newRecord() *Record {
	r := rs.spare
	if r == nil {
		r = &Record{}
	} else {
		rs.spare = nil
	}
	reqPools, counts := r.ReqPools[:0], r.Counts[:0]
	*r = Record{
		DestRel: NoRank, SrcRel: NoRank, Tag: NoRank, RecvTag: NoRank,
		Root: NoRank, NewCommPool: -1, ReqPool: -1,
	}
	r.ReqPools, r.Counts = reqPools, counts
	return r
}

// commit appends the event and reclaims the record unless the table kept it.
func (rs *rankState) commit(r *Record) {
	rs.keyBuf.S = r.AppendKey(rs.keyBuf.S[:0])
	if !rs.rt.appendOwnedKeyed(r, rs.keyBuf.S) {
		rs.spare = r
	}
}

// NewRecorder returns a recorder for a job with numRanks processes.
func NewRecorder(numRanks int, cfg Config) *Recorder {
	rec := &Recorder{cfg: cfg.withDefaults(), ranks: make([]*rankState, numRanks)}
	for i := range rec.ranks {
		rs := &rankState{
			rt:       newRankTrace(i),
			reqPool:  NewPool(),
			commPool: NewPool(),
			filePool: NewPool(),
			keyBuf:   GetBytes(0),
		}
		rs.commPool.Acquire(0) // MPI_COMM_WORLD is pool number 0
		rec.ranks[i] = rs
	}
	return rec
}

// BeforeCall implements mpi.Interceptor.
func (rec *Recorder) BeforeCall(r *mpi.Rank, call *mpi.Call) {}

// relRank encodes partner relative to the caller within the communicator.
func (rec *Recorder) relRank(c *mpi.Comm, me, partner int) int {
	switch partner {
	case mpi.AnySource:
		return Wildcard
	case mpi.ProcNull:
		return NoRank
	}
	if rec.cfg.AbsoluteRanks {
		return partner
	}
	size := c.Size()
	return ((partner-me)%size + size) % size
}

// AfterCall implements mpi.Interceptor: it encodes the completed call as a
// Record and appends it to the caller's trace.
func (rec *Recorder) AfterCall(r *mpi.Rank, call *mpi.Call) {
	rs := rec.ranks[r.Rank()]
	rec7 := rs.newRecord()
	rec7.Func = call.Func
	rec7.Bytes = call.Bytes
	var me int
	if call.Comm != nil {
		me = call.Comm.RankOf(r.Rank())
		pool, ok := rs.commPool.Lookup(call.Comm.ID())
		if !ok {
			pool = rs.commPool.Acquire(call.Comm.ID())
		}
		rec7.CommPool = pool
	}

	switch call.Func {
	case "MPI_Send", "MPI_Ssend":
		rec7.DestRel = rec.relRank(call.Comm, me, call.Dest)
		rec7.Tag = call.Tag
	case "MPI_Recv", "MPI_Probe", "MPI_Iprobe":
		rec7.SrcRel = rec.relRank(call.Comm, me, call.Source)
		rec7.Tag = encodeTag(call.Tag)
	case "MPI_Isend":
		rec7.DestRel = rec.relRank(call.Comm, me, call.Dest)
		rec7.Tag = call.Tag
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Irecv":
		rec7.SrcRel = rec.relRank(call.Comm, me, call.Source)
		rec7.Tag = encodeTag(call.Tag)
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Wait":
		rec7.ReqPool = rs.releaseReq(call.Request)
	case "MPI_Waitall":
		for _, q := range call.Requests {
			rec7.ReqPools = append(rec7.ReqPools, rs.releaseReq(q))
		}
	case "MPI_Waitany":
		for _, q := range call.Requests {
			if id, ok := rs.reqPool.Lookup(q.ID()); ok {
				rec7.ReqPools = append(rec7.ReqPools, id)
			}
		}
		if call.Request != nil {
			rec7.ReqPool = rs.reqPool.Release(call.Request.ID())
		}
	case "MPI_Testall":
		all := call.Flag
		for _, q := range call.Requests {
			if q == nil {
				continue
			}
			if all {
				rec7.ReqPools = append(rec7.ReqPools, rs.reqPool.Release(q.ID()))
			} else if id, ok := rs.reqPool.Lookup(q.ID()); ok {
				rec7.ReqPools = append(rec7.ReqPools, id)
			}
		}
	case "MPI_Test":
		if call.Flag {
			rec7.ReqPool = rs.reqPool.Release(call.Request.ID())
		} else if id, ok := rs.reqPool.Lookup(call.Request.ID()); ok {
			rec7.ReqPool = id
		}
	case "MPI_Sendrecv":
		rec7.DestRel = rec.relRank(call.Comm, me, call.Dest)
		rec7.Tag = call.Tag
		rec7.SrcRel = rec.relRank(call.Comm, me, call.Source)
		rec7.RecvTag = encodeTag(call.RecvTag)
	case "MPI_Bcast", "MPI_Reduce", "MPI_Gather", "MPI_Scatter", "MPI_Gatherv":
		rec7.Root = call.Root
		rec7.Op = string(call.Op)
	case "MPI_Allreduce", "MPI_Scan", "MPI_Exscan", "MPI_Reduce_scatter":
		rec7.Op = string(call.Op)
	case "MPI_Ibarrier":
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Ibcast":
		rec7.Root = call.Root
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Iallreduce":
		rec7.Op = string(call.Op)
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Barrier", "MPI_Allgather", "MPI_Allgatherv":
		// comm + bytes suffice
	case "MPI_Alltoall":
		// bytes recorded as per-pair volume
	case "MPI_Alltoallv":
		rec7.Counts = append(rec7.Counts, call.Counts...)
	case "MPI_Comm_split":
		rec7.Color = call.Color
		rec7.Key = call.Key
		if call.NewComm != nil {
			rec7.NewCommPool = rs.commPool.Acquire(call.NewComm.ID())
		}
	case "MPI_Comm_dup":
		if call.NewComm != nil {
			rec7.NewCommPool = rs.commPool.Acquire(call.NewComm.ID())
		}
	case "MPI_Comm_free":
		rs.commPool.Release(call.Comm.ID())
	case "MPI_Send_init":
		rec7.DestRel = rec.relRank(call.Comm, me, call.Dest)
		rec7.Tag = call.Tag
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Recv_init":
		rec7.SrcRel = rec.relRank(call.Comm, me, call.Source)
		rec7.Tag = encodeTag(call.Tag)
		rec7.ReqPool = rs.reqPool.Acquire(call.Request.ID())
	case "MPI_Start":
		if id, ok := rs.reqPool.Lookup(call.Request.ID()); ok {
			rec7.ReqPool = id
		}
	case "MPI_Request_free":
		rec7.ReqPool = rs.reqPool.Release(call.Request.ID())
	case "MPI_File_open":
		rec7.FileName = call.FileName
		if call.File != nil {
			rec7.FilePool = rs.filePool.Acquire(call.File.ID())
		}
	case "MPI_File_close":
		rec7.FilePool = rs.filePool.Release(call.File.ID())
	case "MPI_File_write_at", "MPI_File_read_at",
		"MPI_File_write_at_all", "MPI_File_read_at_all":
		if id, ok := rs.filePool.Lookup(call.File.ID()); ok {
			rec7.FilePool = id
		}
		rec7.OffsetRel = call.Offset - me*call.Bytes
	}

	rs.commit(rec7)
	rs.rt.Durs = append(rs.rt.Durs, float64(call.End.Sub(call.Start)))
	if !rec.cfg.DisableOverhead {
		r.AddOverhead(rec.cfg.PerEventOverhead)
	}
}

func encodeTag(tag int) int {
	if tag == mpi.AnyTag {
		return Wildcard
	}
	return tag
}

// releaseReq frees an ordinary request's pool number; persistent requests
// stay pooled until MPI_Request_free, as in MPI.
func (rs *rankState) releaseReq(q *mpi.Request) int {
	if q == nil {
		return -1
	}
	if q.Persistent() {
		if id, ok := rs.reqPool.Lookup(q.ID()); ok {
			return id
		}
		return -1
	}
	return rs.reqPool.Release(q.ID())
}

// OnCompute implements mpi.Interceptor: the computation region becomes a
// call of the virtual MPI_Compute function whose parameter is the cluster id
// of its counter vector.
func (rec *Recorder) OnCompute(r *mpi.Rank, k perfmodel.Kernel, c perfmodel.Counters, start, end vtime.Time) {
	if k.IsZero() && c == (perfmodel.Counters{}) {
		return // Elapse region: nothing measurable to record
	}
	rs := rec.ranks[r.Rank()]
	cluster := rs.rt.clusterOf(c, float64(end.Sub(start)), rec.cfg.ClusterThreshold)
	rec7 := rs.newRecord()
	rec7.Func = "MPI_Compute"
	rec7.ComputeCluster = cluster
	rs.commit(rec7)
	rs.rt.Durs = append(rs.rt.Durs, float64(end.Sub(start)))
	if !rec.cfg.DisableOverhead {
		r.AddOverhead(rec.cfg.CounterReadOverhead)
	}
}

// Trace assembles the recorded per-rank traces. Call it after World.Run
// returns.
func (rec *Recorder) Trace(platformName, implName string) *Trace {
	t := &Trace{
		NumRanks: len(rec.ranks),
		Platform: platformName,
		Impl:     implName,
		Ranks:    make([]*RankTrace, len(rec.ranks)),
	}
	for i, rs := range rec.ranks {
		t.Ranks[i] = rs.rt
		// The run is over: return the key scratch to the pool. Unref is
		// nil-safe, so a second Trace() call is harmless.
		rs.keyBuf.Unref()
		rs.keyBuf = nil
	}
	return t
}

// Durations returns the per-event virtual durations recorded for a rank,
// parallel to its Events sequence. The shrinking regression (paper §2.7)
// and the sleep-replay baselines consume these.
func (rec *Recorder) Durations(rank int) []float64 {
	return rec.ranks[rank].rt.Durs
}
