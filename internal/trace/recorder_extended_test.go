package trace

import (
	"testing"

	"siesta/internal/mpi"
	"siesta/internal/perfmodel"
)

// TestRecorderExtendedCalls drives every extended call through the recorder
// and asserts the pool and parameter encodings directly.
func TestRecorderExtendedCalls(t *testing.T) {
	rec := NewRecorder(2, Config{})
	w := mpi.NewWorld(mpi.Config{Size: 2, Interceptor: rec, Seed: 5})
	_, err := w.Run(func(r *mpi.Rank) {
		c := r.World()
		other := 1 - r.Rank()

		// Persistent pair: pool ids live across Start/Wait, die at free.
		ps := r.SendInit(c, other, 1, 64)
		pr := r.RecvInit(c, other, 1)
		r.Start(pr)
		r.Start(ps)
		r.Wait(ps)
		r.Wait(pr)
		r.RequestFree(ps)
		r.RequestFree(pr)

		// Probe + Iprobe + Recv.
		r.Send(c, other, 2, 32)
		r.Probe(c, other, 2)
		r.Iprobe(c, other, 2)
		r.Recv(c, other, 2)

		// Waitany over two requests. The barrier lets both eager sends
		// land first, so Waitany picks by virtual completion time, not by
		// which message happened to arrive first in wall-clock terms, and
		// the two ranks' tables stay identical.
		a := r.Irecv(c, other, 3)
		b := r.Irecv(c, other, 4)
		r.Isend(c, other, 3, 16)
		r.Isend(c, other, 4, 16)
		r.Barrier(c)
		idx, _ := r.Waitany([]mpi.Req{a, b})
		rest := a
		if idx == 0 {
			rest = b
		}
		for !r.Testall([]mpi.Req{rest}) {
			r.Compute(perfmodel.Kernel{IntOps: 1e5})
		}

		// Non-blocking collectives.
		rq := r.Ibarrier(c)
		r.Wait(rq)
		rq = r.Ibcast(c, 0, 256)
		r.Wait(rq)
		rq = r.Iallreduce(c, 8, mpi.OpSum)
		r.Wait(rq)

		// Prefix collectives.
		r.Scan(c, 8, mpi.OpSum)
		r.Exscan(c, 8, mpi.OpSum)
		r.ReduceScatter(c, 8, mpi.OpMax)

		// MPI-IO.
		f := r.FileOpen(c, "t.dat")
		r.FileWriteAt(f, r.Rank()*128, 128)
		r.FileReadAt(f, r.Rank()*128, 128)
		r.FileWriteAtAll(f, r.Rank()*128, 128)
		r.FileReadAtAll(f, r.Rank()*128, 128)
		r.FileClose(f)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace("A", "openmpi")
	rt := tr.Ranks[0]

	byFunc := map[string][]*Record{}
	for _, r := range rt.Table {
		byFunc[r.Func.String()] = append(byFunc[r.Func.String()], r)
	}
	get := func(f string) *Record {
		t.Helper()
		rs := byFunc[f]
		if len(rs) == 0 {
			t.Fatalf("no %s record", f)
		}
		return rs[0]
	}

	if r := get("MPI_Send_init"); r.ReqPool != 0 || r.Bytes != 64 {
		t.Errorf("Send_init encoding wrong: %+v", r)
	}
	if r := get("MPI_Recv_init"); r.ReqPool != 1 {
		t.Errorf("Recv_init pool %d, want 1", r.ReqPool)
	}
	if r := get("MPI_Start"); r.ReqPool < 0 {
		t.Errorf("Start should reference a live pool id: %+v", r)
	}
	// Wait on a persistent request keeps the pool id alive.
	if r := get("MPI_Request_free"); r.ReqPool < 0 {
		t.Errorf("Request_free should release a pool id: %+v", r)
	}
	if r := get("MPI_Probe"); r.SrcRel != 1 || r.Tag != 2 {
		t.Errorf("Probe encoding wrong: %+v", r)
	}
	if r := get("MPI_Iprobe"); r.SrcRel != 1 {
		t.Errorf("Iprobe encoding wrong: %+v", r)
	}
	if r := get("MPI_Waitany"); len(r.ReqPools) == 0 || r.ReqPool < 0 {
		t.Errorf("Waitany should record candidates and the completed pool: %+v", r)
	}
	if r := get("MPI_Ibarrier"); r.ReqPool < 0 {
		t.Errorf("Ibarrier should pool its request: %+v", r)
	}
	if r := get("MPI_Ibcast"); r.Root != 0 || r.Bytes != 256 {
		t.Errorf("Ibcast encoding wrong: %+v", r)
	}
	if r := get("MPI_Iallreduce"); r.Op != "sum" {
		t.Errorf("Iallreduce op lost: %+v", r)
	}
	if r := get("MPI_Scan"); r.Op != "sum" || r.Bytes != 8 {
		t.Errorf("Scan encoding wrong: %+v", r)
	}
	if r := get("MPI_File_open"); r.FileName != "t.dat" || r.FilePool != 0 {
		t.Errorf("File_open encoding wrong: %+v", r)
	}
	// OffsetRel collapses the rank*bytes pattern to zero on every rank.
	if r := get("MPI_File_write_at"); r.OffsetRel != 0 {
		t.Errorf("write_at OffsetRel %d, want 0", r.OffsetRel)
	}
	if r := get("MPI_File_close"); r.FilePool != 0 {
		t.Errorf("File_close should release pool 0: %+v", r)
	}

	// Both ranks must produce identical tables (fully symmetric program).
	other := tr.Ranks[1]
	if len(other.Table) != len(rt.Table) {
		t.Fatalf("asymmetric tables: %d vs %d", len(other.Table), len(rt.Table))
	}
	for i := range rt.Table {
		if rt.Table[i].KeyString() != other.Table[i].KeyString() {
			t.Errorf("record %d differs across ranks:\n  %s\n  %s",
				i, rt.Table[i].KeyString(), other.Table[i].KeyString())
		}
	}

	// And the helpers exercised nowhere else.
	if tr.TotalUniqueRecords() != len(rt.Table)*2 {
		t.Error("TotalUniqueRecords wrong")
	}
	if len(tr.SortedFuncs()) == 0 {
		t.Error("SortedFuncs empty")
	}
}
