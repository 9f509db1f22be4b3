package codegen

import (
	"strings"
	"testing"

	"siesta/internal/merge"
	"siesta/internal/mpicall"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// programWithEveryTerminal constructs a synthetic merged program containing
// one terminal per supported function, so the C emitter's every branch is
// exercised and inspected.
func programWithEveryTerminal() *merge.Program {
	mk := func(f mpicall.Func, mut func(*trace.Record)) *trace.Record {
		r := &trace.Record{
			Func: f, DestRel: trace.NoRank, SrcRel: trace.NoRank,
			Tag: 0, RecvTag: 0, Root: 0, NewCommPool: -1, ReqPool: -1,
		}
		if mut != nil {
			mut(r)
		}
		return r
	}
	terms := []*trace.Record{
		mk(mpicall.Compute, func(r *trace.Record) { r.ComputeCluster = 0 }),
		mk(mpicall.Send, func(r *trace.Record) { r.DestRel = 1; r.Bytes = 100 }),
		mk(mpicall.Ssend, func(r *trace.Record) { r.DestRel = 2; r.Bytes = 200 }),
		mk(mpicall.Recv, func(r *trace.Record) { r.SrcRel = trace.Wildcard; r.Tag = trace.Wildcard }),
		mk(mpicall.Probe, func(r *trace.Record) { r.SrcRel = 1 }),
		mk(mpicall.Iprobe, func(r *trace.Record) { r.SrcRel = 1 }),
		mk(mpicall.Isend, func(r *trace.Record) { r.DestRel = 0; r.Bytes = 64; r.ReqPool = 0 }),
		mk(mpicall.Irecv, func(r *trace.Record) { r.SrcRel = 3; r.ReqPool = 1 }),
		mk(mpicall.Wait, func(r *trace.Record) { r.ReqPool = 0 }),
		mk(mpicall.Waitall, func(r *trace.Record) { r.ReqPools = []int{0, 1} }),
		mk(mpicall.Waitany, func(r *trace.Record) { r.ReqPool = 1; r.ReqPools = []int{0, 1} }),
		mk(mpicall.Test, func(r *trace.Record) { r.ReqPool = 0 }),
		mk(mpicall.Testall, func(r *trace.Record) { r.ReqPools = []int{0} }),
		mk(mpicall.SendInit, func(r *trace.Record) { r.DestRel = 1; r.Bytes = 128; r.ReqPool = 2 }),
		mk(mpicall.RecvInit, func(r *trace.Record) { r.SrcRel = 1; r.ReqPool = 3 }),
		mk(mpicall.Start, func(r *trace.Record) { r.ReqPool = 2 }),
		mk(mpicall.RequestFree, func(r *trace.Record) { r.ReqPool = 2 }),
		mk(mpicall.Sendrecv, func(r *trace.Record) { r.DestRel = 1; r.SrcRel = 7; r.Bytes = 99 }),
		mk(mpicall.Barrier, nil),
		mk(mpicall.Bcast, func(r *trace.Record) { r.Bytes = 10 }),
		mk(mpicall.Reduce, func(r *trace.Record) { r.Op = "max"; r.Bytes = 8 }),
		mk(mpicall.Allreduce, func(r *trace.Record) { r.Op = "min"; r.Bytes = 8 }),
		mk(mpicall.Scan, func(r *trace.Record) { r.Op = "sum"; r.Bytes = 8 }),
		mk(mpicall.Exscan, func(r *trace.Record) { r.Op = ""; r.Bytes = 8 }),
		mk(mpicall.ReduceScatter, func(r *trace.Record) { r.Op = "sum"; r.Bytes = 8 }),
		mk(mpicall.Gather, func(r *trace.Record) { r.Bytes = 16 }),
		mk(mpicall.Gatherv, func(r *trace.Record) { r.Bytes = 16 }),
		mk(mpicall.Scatter, func(r *trace.Record) { r.Bytes = 16 }),
		mk(mpicall.Allgather, func(r *trace.Record) { r.Bytes = 16 }),
		mk(mpicall.Allgatherv, func(r *trace.Record) { r.Bytes = 16 }),
		mk(mpicall.Alltoall, func(r *trace.Record) { r.Bytes = 16 }),
		mk(mpicall.Alltoallv, func(r *trace.Record) { r.Counts = []int{1, 2, 3, 4} }),
		mk(mpicall.CommSplit, func(r *trace.Record) { r.Color = 1; r.Key = 0; r.NewCommPool = 1 }),
		mk(mpicall.CommDup, func(r *trace.Record) { r.NewCommPool = 2 }),
		mk(mpicall.CommFree, func(r *trace.Record) { r.CommPool = 2 }),
		mk(mpicall.FileOpen, func(r *trace.Record) { r.FileName = "chk.dat"; r.FilePool = 0 }),
		mk(mpicall.FileWriteAt, func(r *trace.Record) { r.Bytes = 4096; r.OffsetRel = 128 }),
		mk(mpicall.FileReadAt, func(r *trace.Record) { r.Bytes = 4096 }),
		mk(mpicall.FileWriteAtAll, func(r *trace.Record) { r.Bytes = 4096 }),
		mk(mpicall.FileReadAtAll, func(r *trace.Record) { r.Bytes = 4096 }),
		mk(mpicall.FileClose, nil),
	}
	body := make([]merge.MainSym, len(terms))
	all := rankset.Range(0, 4)
	for i := range terms {
		ranks := all
		if i%7 == 3 {
			ranks = rankset.New(0, 2) // force some rank branches
		}
		body[i] = merge.MainSym{Sym: merge.Sym{Ref: i, Count: 1 + i%3}, Ranks: ranks}
	}
	cl := &trace.Cluster{N: 1}
	cl.Sum[0], cl.Sum[1] = 1e6, 4e5
	cl.Rep = cl.Sum
	return &merge.Program{
		NumRanks:  4,
		Platform:  "A",
		Impl:      "openmpi",
		Terminals: terms,
		Clusters:  []*trace.Cluster{cl},
		Mains:     []merge.Main{{Ranks: all, Body: body}},
	}
}

func TestCSourceEmitsEveryCallKind(t *testing.T) {
	prog := programWithEveryTerminal()
	gen, err := Generate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := gen.CSource()
	for _, want := range []string{
		"MPI_Send(", "MPI_Ssend(", "MPI_Recv(", "MPI_Probe(", "MPI_Iprobe(",
		"MPI_Isend(", "MPI_Irecv(", "MPI_Wait(", "MPI_Test(",
		"MPI_Send_init(", "MPI_Recv_init(", "MPI_Start(", "MPI_Request_free(",
		"MPI_Sendrecv(", "MPI_Barrier(", "MPI_Bcast(", "MPI_Reduce(",
		"MPI_Allreduce(", "MPI_Scan(", "MPI_Exscan(", "MPI_Reduce_scatter(",
		"MPI_Gather(", "MPI_Scatter(", "MPI_Allgather(", "MPI_Alltoall(",
		"MPI_Alltoallv(", "MPI_Comm_split(", "MPI_Comm_dup(", "MPI_Comm_free(",
		"MPI_File_open(", "MPI_File_write_at(", "MPI_File_read_at(",
		"MPI_File_write_at_all(", "MPI_File_read_at_all(", "MPI_File_close(",
		"MPI_ANY_SOURCE", "MPI_ANY_TAG", "MPI_MAX", "MPI_MIN", "MPI_SUM",
		"compute_0", "file_pool", "req_pool", "comm_pool",
		"rank ==", "for (long r_",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated C lacks %q", want)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces")
	}
	if strings.Contains(src, "unsupported:") {
		t.Error("emitter fell through to the unsupported branch")
	}
}

func TestRankCond(t *testing.T) {
	cases := []struct {
		in   [][2]int
		want string
	}{
		{nil, "0"},
		{[][2]int{{3, 3}}, "rank == 3"},
		{[][2]int{{0, 5}}, "rank <= 5"},
		{[][2]int{{2, 4}}, "(rank >= 2 && rank <= 4)"},
		{[][2]int{{0, 1}, {5, 5}}, "rank <= 1 || rank == 5"},
	}
	for _, c := range cases {
		if got := rankCond(c.in); got != c.want {
			t.Errorf("rankCond(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRelAndTagExpr(t *testing.T) {
	if relExpr(trace.NoRank) != "MPI_PROC_NULL" || relExpr(trace.Wildcard) != "MPI_ANY_SOURCE" {
		t.Error("sentinel rel expressions wrong")
	}
	if relExpr(0) != "rank" || !strings.Contains(relExpr(3), "+ 3") {
		t.Error("rel offsets wrong")
	}
	if tagExpr(trace.Wildcard) != "MPI_ANY_TAG" || tagExpr(trace.NoRank) != "0" || tagExpr(7) != "7" {
		t.Error("tag expressions wrong")
	}
	if cOp("max") != "MPI_MAX" || cOp("min") != "MPI_MIN" || cOp("") != "MPI_SUM" {
		t.Error("op mapping wrong")
	}
}
