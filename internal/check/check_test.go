package check

import (
	"strings"
	"testing"

	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// The unit tests drive the verifier over hand-built traces: each test lists
// every rank's record sequence exactly as the tracing layer would have
// recorded it (relative ranks, pool numbers, wildcard encodings), merges it
// into a Program, and checks the diagnostics. Deadlocking programs cannot be
// produced by tracing a run (the run would never finish), which is exactly
// why the corpus here is constructed by hand.

// rec builds a Record with the tracing layer's default sentinel fields.
func rec(fn string, mut func(*trace.Record)) *trace.Record {
	f, ok := mpicall.Parse(fn)
	if !ok {
		panic("rec: unknown call " + fn)
	}
	r := &trace.Record{
		Func:        f,
		DestRel:     trace.NoRank,
		SrcRel:      trace.NoRank,
		Tag:         trace.NoRank,
		RecvTag:     trace.NoRank,
		Root:        trace.NoRank,
		NewCommPool: -1,
		ReqPool:     -1,
	}
	if mut != nil {
		mut(r)
	}
	return r
}

func send(destRel, tag, bytes int) *trace.Record {
	return rec("MPI_Send", func(r *trace.Record) { r.DestRel, r.Tag, r.Bytes = destRel, tag, bytes })
}

func recv(srcRel, tag, bytes int) *trace.Record {
	return rec("MPI_Recv", func(r *trace.Record) { r.SrcRel, r.Tag, r.Bytes = srcRel, tag, bytes })
}

func isend(destRel, tag, bytes, pool int) *trace.Record {
	return rec("MPI_Isend", func(r *trace.Record) {
		r.DestRel, r.Tag, r.Bytes, r.ReqPool = destRel, tag, bytes, pool
	})
}

func irecv(srcRel, tag, pool int) *trace.Record {
	return rec("MPI_Irecv", func(r *trace.Record) { r.SrcRel, r.Tag, r.ReqPool = srcRel, tag, pool })
}

func wait(pool int) *trace.Record {
	return rec("MPI_Wait", func(r *trace.Record) { r.ReqPool = pool })
}

func waitall(pools ...int) *trace.Record {
	return rec("MPI_Waitall", func(r *trace.Record) { r.ReqPools = pools })
}

func barrier(commPool int) *trace.Record {
	return rec("MPI_Barrier", func(r *trace.Record) { r.CommPool = commPool })
}

func allreduce(commPool, bytes int, op string) *trace.Record {
	return rec("MPI_Allreduce", func(r *trace.Record) { r.CommPool, r.Bytes, r.Op = commPool, bytes, op })
}

func commDup(commPool, newPool int) *trace.Record {
	return rec("MPI_Comm_dup", func(r *trace.Record) { r.CommPool, r.NewCommPool = commPool, newPool })
}

func commFree(commPool int) *trace.Record {
	return rec("MPI_Comm_free", func(r *trace.Record) { r.CommPool = commPool })
}

// buildProgram assembles a per-rank record sequence into a merged program.
func buildProgram(t *testing.T, ranks [][]*trace.Record) *merge.Program {
	t.Helper()
	tr := &trace.Trace{NumRanks: len(ranks), Platform: "test", Impl: "test"}
	for i, events := range ranks {
		rt := &trace.RankTrace{Rank: i}
		index := map[string]int{}
		for _, r := range events {
			if r.IsCompute() {
				for len(rt.Clusters) <= r.ComputeCluster {
					rt.Clusters = append(rt.Clusters, &trace.Cluster{N: 1})
				}
			}
			key := r.KeyString()
			id, ok := index[key]
			if !ok {
				id = len(rt.Table)
				rt.Table = append(rt.Table, r)
				index[key] = id
			}
			rt.Events = append(rt.Events, id)
			rt.Durs = append(rt.Durs, 0)
		}
		tr.Ranks = append(tr.Ranks, rt)
	}
	p, err := merge.Build(tr, merge.Options{})
	if err != nil {
		t.Fatalf("merge.Build: %v", err)
	}
	return p
}

func verify(t *testing.T, ranks [][]*trace.Record, opts Options) *Report {
	t.Helper()
	rep, err := Verify(buildProgram(t, ranks), opts)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return rep
}

func wantRule(t *testing.T, rep *Report, rule string) Diagnostic {
	t.Helper()
	for _, d := range rep.Diags {
		if d.Rule == rule {
			return d
		}
	}
	t.Fatalf("no %s diagnostic in report:\n%s", rule, rep)
	return Diagnostic{}
}

func wantClean(t *testing.T, rep *Report) {
	t.Helper()
	if len(rep.Diags) != 0 {
		t.Fatalf("expected a clean report, got:\n%s", rep)
	}
}

func TestCleanNonblockingRing(t *testing.T) {
	// Classic halo ring: every rank Isends right, Irecvs from the left,
	// waits on both, then a barrier. SPMD-identical relative encodings.
	const P = 4
	ranks := make([][]*trace.Record, P)
	for i := range ranks {
		ranks[i] = []*trace.Record{
			isend(1, 0, 1024, 0),
			irecv(P-1, 0, 1),
			waitall(0, 1),
			barrier(0),
		}
	}
	rep := verify(t, ranks, Options{ExactBytes: true})
	wantClean(t, rep)
	if rep.NumRanks != P || rep.Events != 4*P {
		t.Errorf("report counts = (%d ranks, %d events), want (%d, %d)", rep.NumRanks, rep.Events, P, 4*P)
	}
}

func TestSendRecvCycleDeadlock(t *testing.T) {
	// Both ranks receive first: the head-to-head deadlock from the runtime
	// detector's test table, caught here without executing anything.
	ranks := [][]*trace.Record{
		{recv(1, 0, 64), send(1, 0, 64)},
		{recv(1, 0, 64), send(1, 0, 64)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleDeadlock)
	if len(d.Ranks) != 2 || d.Ranks[0] != 0 || d.Ranks[1] != 1 {
		t.Errorf("deadlock ranks = %v, want [0 1]", d.Ranks)
	}
	if !strings.Contains(d.Message, "cycle") {
		t.Errorf("deadlock message %q should name the dependency cycle", d.Message)
	}
	if d.Record < 0 || d.Path == "" {
		t.Errorf("deadlock diagnostic should be anchored, got record=%d path=%q", d.Record, d.Path)
	}
}

func TestUnmatchedSendIsWarning(t *testing.T) {
	ranks := [][]*trace.Record{
		{send(1, 3, 256)},
		{rec("MPI_Compute", nil)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleP2PUnmatchedSend)
	if d.Severity != Warning {
		t.Errorf("unmatched send severity = %v, want warning", d.Severity)
	}
	if !strings.Contains(d.Message, "0->1 tag 3") {
		t.Errorf("message %q should name the channel", d.Message)
	}
	if rep.HasErrors() {
		t.Errorf("fire-and-forget send should not be an error:\n%s", rep)
	}
}

func TestLeakedIrecvIsError(t *testing.T) {
	// An Irecv that neither matches nor gets waited on: both the leak and
	// the dangling channel must be reported.
	ranks := [][]*trace.Record{
		{irecv(1, 7, 0)},
		{rec("MPI_Compute", nil)},
	}
	rep := verify(t, ranks, Options{})
	wantRule(t, rep, RuleRequestLeak)
	wantRule(t, rep, RuleP2PUnmatchedRecv)
	if !rep.HasErrors() {
		t.Errorf("leaked Irecv must be an error:\n%s", rep)
	}
}

func TestByteMismatch(t *testing.T) {
	ranks := [][]*trace.Record{
		{send(1, 0, 100)},
		{recv(1, 0, 200)},
	}
	if rep := verify(t, ranks, Options{ExactBytes: true}); !rep.HasErrors() {
		t.Errorf("exact mode must flag 100 vs 200 bytes:\n%s", rep)
	} else if d := wantRule(t, rep, RuleP2PBytes); d.Severity != Error {
		t.Errorf("byte mismatch severity = %v, want error", d.Severity)
	}
	// Lenient mode tolerates scaled sizes as long as both are nonzero.
	if rep := verify(t, ranks, Options{}); rep.HasErrors() {
		t.Errorf("lenient mode should tolerate nonzero scaling:\n%s", rep)
	}
}

func TestZeroByteMismatch(t *testing.T) {
	ranks := [][]*trace.Record{
		{send(1, 0, 0)},
		{recv(1, 0, 512)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleP2PBytes)
	if !rep.HasErrors() {
		t.Errorf("zero/nonzero pair must be an error even in lenient mode, got %v", d)
	}
}

func TestCollectiveFuncMismatch(t *testing.T) {
	ranks := [][]*trace.Record{
		{barrier(0)},
		{allreduce(0, 64, "sum")},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleCollMismatch)
	if !strings.Contains(d.Message, "MPI_Barrier") || !strings.Contains(d.Message, "MPI_Allreduce") {
		t.Errorf("mismatch message %q should name both collectives", d.Message)
	}
}

func TestCollectiveRootMismatch(t *testing.T) {
	bcast := func(root int) *trace.Record {
		return rec("MPI_Bcast", func(r *trace.Record) { r.Root, r.Bytes = root, 64 })
	}
	ranks := [][]*trace.Record{
		{bcast(0)},
		{bcast(1)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleCollMismatch)
	if !strings.Contains(d.Message, "root") {
		t.Errorf("mismatch message %q should mention the roots", d.Message)
	}
}

func TestMissingCollectiveParticipant(t *testing.T) {
	ranks := [][]*trace.Record{
		{barrier(0)},
		{barrier(0)},
		{rec("MPI_Compute", nil)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleDeadlock)
	if len(d.Ranks) != 2 || d.Ranks[0] != 0 || d.Ranks[1] != 1 {
		t.Errorf("deadlock ranks = %v, want [0 1] (rank 2 exited)", d.Ranks)
	}
	if !strings.Contains(d.Message, "2/3 arrived") {
		t.Errorf("message %q should report the arrival count", d.Message)
	}
	wantRule(t, rep, RuleCollLength)
}

func TestMismatchedCollectiveOrderAcrossComms(t *testing.T) {
	// Rank 0 enters the barrier on the world comm first, rank 1 on the
	// duplicate first: a cross-communicator ordering deadlock.
	ranks := [][]*trace.Record{
		{commDup(0, 1), barrier(0), barrier(1)},
		{commDup(0, 1), barrier(1), barrier(0)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleDeadlock)
	if len(d.Ranks) != 2 {
		t.Fatalf("deadlock ranks = %v, want both", d.Ranks)
	}
	if !strings.Contains(d.Message, "cycle") {
		t.Errorf("message %q should contain the dependency cycle", d.Message)
	}
}

func TestCommLifecycle(t *testing.T) {
	// Dup, use, free, reuse of the pool number: clean.
	clean := [][]*trace.Record{
		{commDup(0, 1), allreduce(1, 8, "sum"), commFree(1), commDup(0, 1), barrier(1), commFree(1)},
		{commDup(0, 1), allreduce(1, 8, "sum"), commFree(1), commDup(0, 1), barrier(1), commFree(1)},
	}
	wantClean(t, verify(t, clean, Options{ExactBytes: true}))

	// Use after free.
	uaf := [][]*trace.Record{
		{commDup(0, 1), commFree(1), allreduce(1, 8, "sum")},
		{commDup(0, 1), commFree(1), allreduce(1, 8, "sum")},
	}
	d := wantRule(t, verify(t, uaf, Options{}), RuleHandleComm)
	if d.Severity != Error {
		t.Errorf("use-after-free severity = %v, want error", d.Severity)
	}

	// Freeing MPI_COMM_WORLD.
	world := [][]*trace.Record{{commFree(0)}}
	wantRule(t, verify(t, world, Options{}), RuleHandleComm)
}

func TestWaitOnDanglingRequest(t *testing.T) {
	ranks := [][]*trace.Record{{wait(3)}}
	d := wantRule(t, verify(t, ranks, Options{}), RuleHandleRequest)
	if !strings.Contains(d.Message, "pool 3") {
		t.Errorf("message %q should name the pool", d.Message)
	}
}

func TestWaitOnNeverSentMessage(t *testing.T) {
	// The runtime table's "wait on never-sent message": rank 1 finishes
	// without sending, so there is no cycle, but rank 0 is provably stuck.
	ranks := [][]*trace.Record{
		{irecv(1, 7, 0), wait(0)},
		{rec("MPI_Compute", nil)},
	}
	rep := verify(t, ranks, Options{})
	d := wantRule(t, rep, RuleDeadlock)
	if len(d.Ranks) != 1 || d.Ranks[0] != 0 {
		t.Errorf("deadlock ranks = %v, want [0]", d.Ranks)
	}
	if !strings.Contains(d.Message, "MPI_Irecv") || !strings.Contains(d.Message, "tag 7") {
		t.Errorf("message %q should name the originating Irecv and tag", d.Message)
	}
}

func TestWildcardRecvClean(t *testing.T) {
	// The runtime table's wildcard near miss: rank 0 consumes two wildcard
	// receives that both partners eventually satisfy.
	wild := func() *trace.Record {
		return rec("MPI_Recv", func(r *trace.Record) {
			r.SrcRel, r.Tag, r.Bytes = trace.Wildcard, trace.Wildcard, 1<<20
		})
	}
	// Rank 1 sends to rank 0 (rel = (0-1+3)%3 = 2) tag 1; rank 2 sends to
	// rank 0 (rel = (0-2+3)%3 = 1) tag 2 — mirroring the runtime test.
	ranks := [][]*trace.Record{
		{wild(), wild()},
		{rec("MPI_Compute", nil), send(2, 1, 1<<20)},
		{rec("MPI_Compute", nil), send(1, 2, 1<<20)},
	}
	wantClean(t, verify(t, ranks, Options{ExactBytes: true}))
}

func TestEagerCompletionClean(t *testing.T) {
	ranks := [][]*trace.Record{
		{irecv(1, 0, 0), wait(0)},
		{rec("MPI_Compute", nil), send(1, 0, 8)},
	}
	wantClean(t, verify(t, ranks, Options{ExactBytes: true}))
}

func TestSsendMatchedClean(t *testing.T) {
	ssend := func(destRel, tag, bytes int) *trace.Record {
		return rec("MPI_Ssend", func(r *trace.Record) { r.DestRel, r.Tag, r.Bytes = destRel, tag, bytes })
	}
	ranks := [][]*trace.Record{
		{ssend(1, 0, 64)},
		{recv(1, 0, 64)},
	}
	wantClean(t, verify(t, ranks, Options{ExactBytes: true}))
}

func TestPersistentRequestClean(t *testing.T) {
	sendInit := rec("MPI_Send_init", func(r *trace.Record) { r.DestRel, r.Tag, r.Bytes, r.ReqPool = 1, 0, 128, 0 })
	recvInit := rec("MPI_Recv_init", func(r *trace.Record) { r.SrcRel, r.Tag, r.ReqPool = 1, 0, 1 })
	start := func(pool int) *trace.Record {
		return rec("MPI_Start", func(r *trace.Record) { r.ReqPool = pool })
	}
	free := func(pool int) *trace.Record {
		return rec("MPI_Request_free", func(r *trace.Record) { r.ReqPool = pool })
	}
	var seq []*trace.Record
	seq = append(seq, sendInit, recvInit)
	for i := 0; i < 3; i++ {
		seq = append(seq, start(0), start(1), waitall(0, 1))
	}
	seq = append(seq, free(0), free(1))
	ranks := [][]*trace.Record{seq, seq}
	wantClean(t, verify(t, ranks, Options{ExactBytes: true}))
}

func TestDoubleStartFlagged(t *testing.T) {
	sendInit := rec("MPI_Send_init", func(r *trace.Record) { r.DestRel, r.Tag, r.Bytes, r.ReqPool = 0, 0, 8, 0 })
	start := rec("MPI_Start", func(r *trace.Record) { r.ReqPool = 0 })
	ranks := [][]*trace.Record{{sendInit, start, start.Clone()}}
	d := wantRule(t, verify(t, ranks, Options{}), RuleHandleRequest)
	if !strings.Contains(d.Message, "active") {
		t.Errorf("message %q should report the double start", d.Message)
	}
}

func TestTestPollAmbiguityTolerated(t *testing.T) {
	// A Test-polling loop traces the same terminal whether the flag was
	// true or false; the checker must neither flag the poll nor report the
	// request as leaked.
	testRec := func(pool int) *trace.Record {
		return rec("MPI_Test", func(r *trace.Record) { r.ReqPool = pool })
	}
	ranks := [][]*trace.Record{
		{irecv(1, 0, 0), testRec(0), testRec(0)},
		{send(1, 0, 32), rec("MPI_Compute", nil), rec("MPI_Compute", nil)},
	}
	wantClean(t, verify(t, ranks, Options{ExactBytes: true}))
}

func TestFileLifecycle(t *testing.T) {
	open := rec("MPI_File_open", func(r *trace.Record) { r.FileName = "out.dat"; r.FilePool = 0 })
	writeAll := rec("MPI_File_write_at_all", func(r *trace.Record) { r.Bytes = 4096; r.FilePool = 0 })
	closeF := rec("MPI_File_close", func(r *trace.Record) { r.FilePool = 0 })
	seq := []*trace.Record{open, writeAll, closeF}
	wantClean(t, verify(t, [][]*trace.Record{seq, cloneSeq(seq)}, Options{ExactBytes: true}))

	// Write on a closed file.
	bad := []*trace.Record{open.Clone(), closeF.Clone(), writeAll.Clone()}
	rep := verify(t, [][]*trace.Record{bad, cloneSeq(bad)}, Options{})
	wantRule(t, rep, RuleHandleFile)
}

func cloneSeq(seq []*trace.Record) []*trace.Record {
	out := make([]*trace.Record, len(seq))
	for i, r := range seq {
		out[i] = r.Clone()
	}
	return out
}

func TestMaxDiagnosticsTruncates(t *testing.T) {
	// 8 independent dangling waits with one-diagnostic budget.
	var seq []*trace.Record
	for q := 0; q < 8; q++ {
		seq = append(seq, wait(10+q))
	}
	rep := verify(t, [][]*trace.Record{seq}, Options{MaxDiagnostics: 1})
	if len(rep.Diags) != 1 || rep.Truncated != 7 {
		t.Errorf("got %d diags, %d truncated; want 1 and 7", len(rep.Diags), rep.Truncated)
	}
	if !strings.Contains(rep.Summary(), "truncated") {
		t.Errorf("summary %q should mention truncation", rep.Summary())
	}
}

func TestSummaryClean(t *testing.T) {
	ranks := [][]*trace.Record{
		{barrier(0)},
		{barrier(0)},
	}
	rep := verify(t, ranks, Options{})
	if !strings.Contains(rep.Summary(), "clean") {
		t.Errorf("summary %q should say clean", rep.Summary())
	}
}
