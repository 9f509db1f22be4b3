package proxy

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"siesta/internal/codegen"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// execOne runs a single-rank world and hands the rank to fn, returning
// whatever error fn produced from the replayer.
func execOne(t *testing.T, fn func(r *mpi.Rank, rp *Replayer) error) error {
	t.Helper()
	var got error
	w := mpi.NewWorld(mpi.Config{Size: 1})
	if _, err := w.Run(func(r *mpi.Rank) {
		got = fn(r, NewReplayer(r.World()))
	}); err != nil {
		t.Fatalf("world run itself failed: %v", err)
	}
	return got
}

func TestExecCommDivergence(t *testing.T) {
	cases := []struct {
		name   string
		rec    trace.Record
		reason string
	}{
		{
			name:   "computation record",
			rec:    trace.Record{Func: mpicall.Compute},
			reason: "computation record",
		},
		{
			name:   "dangling communicator",
			rec:    trace.Record{Func: mpicall.Barrier, CommPool: 9},
			reason: "dangling communicator pool id 9",
		},
		{
			name:   "unsupported function",
			rec:    trace.Record{Func: mpicall.Func(0xff)}, // outside the table
			reason: "unsupported function",
		},
		{
			name:   "wait on dangling request",
			rec:    trace.Record{Func: mpicall.Wait, ReqPool: 3},
			reason: "dangling request pool id 3",
		},
		{
			name:   "start on dangling request",
			rec:    trace.Record{Func: mpicall.Start, ReqPool: 5},
			reason: "dangling request pool id 5",
		},
		{
			name:   "write to dangling file",
			rec:    trace.Record{Func: mpicall.FileWriteAt, FilePool: 2, Bytes: 64},
			reason: "dangling file pool id 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := execOne(t, func(r *mpi.Rank, rp *Replayer) error {
				return rp.ExecComm(r, &tc.rec)
			})
			var div *DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("ExecComm returned %v, want a DivergenceError", err)
			}
			if !strings.Contains(div.Reason, tc.reason) {
				t.Errorf("reason %q, want it to mention %q", div.Reason, tc.reason)
			}
		})
	}
}

func TestExecCommLenientOnMissingRequests(t *testing.T) {
	// Waitall, Testall, Test and Request_free tolerate missing pool ids:
	// trace compression may have dropped completed-request bookkeeping.
	err := execOne(t, func(r *mpi.Rank, rp *Replayer) error {
		for _, rec := range []trace.Record{
			{Func: mpicall.Waitall, ReqPools: []int{1, 2}},
			{Func: mpicall.Testall, ReqPools: []int{3}},
			{Func: mpicall.Test, ReqPool: 4},
			{Func: mpicall.RequestFree, ReqPool: 5},
		} {
			if err := rp.ExecComm(r, &rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("lenient operations diverged: %v", err)
	}
}

func TestDivergencePropagatesThroughRun(t *testing.T) {
	// A divergence raised mid-replay must come back out of World.Run as a
	// wrapped error, not a process panic.
	w := mpi.NewWorld(mpi.Config{Size: 1})
	_, err := w.Run(func(r *mpi.Rank) {
		rp := NewReplayer(r.World())
		rec := trace.Record{Func: mpicall.Barrier, CommPool: 4}
		if err := rp.ExecComm(r, &rec); err != nil {
			panic(err)
		}
	})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("run returned %v, want a wrapped DivergenceError", err)
	}
	if div.Rank != 0 || div.Func != "MPI_Barrier" {
		t.Errorf("divergence %+v, want rank 0 / MPI_Barrier", div)
	}
}

// A malformed grammar ends the replay with a DivergenceError naming the
// fault on every rank; a rule cycle used to recurse until the runtime
// killed the process with a stack overflow.
func TestReplayRejectsMalformedPrograms(t *testing.T) {
	all := rankset.Range(0, 2)
	for want, rules := range map[string][][]merge.Sym{
		"merge: rule cycle through rule 0": {{{Ref: 1, IsRule: true, Count: 1}}, {{Ref: 0, IsRule: true, Count: 2}}},
		"merge: dangling rule ref 4":       {{{Ref: 0, Count: 1}, {Ref: 4, IsRule: true, Count: 1}}},
	} {
		t.Run(want, func(t *testing.T) {
			p := &merge.Program{
				NumRanks:  2,
				Terminals: []*trace.Record{{Func: mpicall.Barrier}},
				Rules:     rules,
				Mains: []merge.Main{{Ranks: all, Body: []merge.MainSym{
					{Sym: merge.Sym{Ref: 0, Count: 1}, Ranks: all},
					{Sym: merge.Sym{Ref: 0, IsRule: true, Count: 3}, Ranks: all},
				}}},
			}
			_, err := New(&codegen.Generated{Prog: p}).Run(mpi.Config{})
			var div *DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("run returned %v, want a wrapped DivergenceError", err)
			}
			if div.Reason != want {
				t.Errorf("divergence reason %q, want %q", div.Reason, want)
			}
		})
	}
}

// A decoded program may name any pool id. One past the replay's bound
// ends the replay with a DivergenceError instead of growing a handle pool
// to that size.
func TestReplayRejectsHugePoolIDs(t *testing.T) {
	all := rankset.Range(0, 2)
	for _, rec := range []*trace.Record{
		{Func: mpicall.Isend, DestRel: trace.NoRank, SrcRel: trace.NoRank, Root: trace.NoRank, NewCommPool: -1, ReqPool: 1 << 40},
		{Func: mpicall.CommDup, DestRel: trace.NoRank, SrcRel: trace.NoRank, Root: trace.NoRank, NewCommPool: 1 << 40, ReqPool: -1},
		{Func: mpicall.Irecv, DestRel: trace.NoRank, SrcRel: trace.NoRank, Root: trace.NoRank, NewCommPool: -1, ReqPool: maxPoolID},
	} {
		t.Run(rec.Func.String(), func(t *testing.T) {
			p := &merge.Program{
				NumRanks:  2,
				Terminals: []*trace.Record{rec},
				Rules:     [][]merge.Sym{},
				Mains: []merge.Main{{Ranks: all, Body: []merge.MainSym{
					{Sym: merge.Sym{Ref: 0, Count: 1}, Ranks: all},
				}}},
			}
			dec, err := merge.Decode(p.Encode())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = New(&codegen.Generated{Prog: dec}).Run(mpi.Config{})
			runtime.ReadMemStats(&after)
			var div *DivergenceError
			if !errors.As(err, &div) {
				t.Fatalf("run returned %v, want a wrapped DivergenceError", err)
			}
			if !strings.Contains(div.Reason, "out of range") {
				t.Errorf("divergence reason %q, want an out-of-range pool id", div.Reason)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
				t.Errorf("replay allocated %d bytes for one record", grew)
			}
		})
	}
}
