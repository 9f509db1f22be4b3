package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"siesta/internal/perfmodel"
	"siesta/internal/vtime"
)

func TestSsendSynchronizes(t *testing.T) {
	// Even a tiny Ssend must wait for the receiver.
	w := newTestWorld(2)
	var senderDone, recvPost vtime.Time
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r.Ssend(c, 1, 0, 8) // tiny, but synchronous mode
			senderDone = r.Now()
		} else {
			r.Compute(perfmodel.Kernel{IntOps: 1e9})
			recvPost = r.Now()
			r.Recv(c, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone < recvPost {
		t.Errorf("Ssend completed at %v before receiver arrived at %v", senderDone, recvPost)
	}
}

func TestProbeSeesWithoutConsuming(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			st := r.Probe(c, 1, 5)
			if st.Source != 1 || st.Tag != 5 || st.Bytes != 64 {
				panic("probe status wrong")
			}
			// The message must still be there.
			st = r.Recv(c, 1, 5)
			if st.Bytes != 64 {
				panic("probe consumed the message")
			}
		} else {
			r.Send(c, 0, 5, 64)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobe(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			found, _ := r.Iprobe(c, 1, 9)
			_ = found // may or may not have arrived; must not block
			r.Recv(c, 1, 9)
			found, st := r.Iprobe(c, 1, 9)
			if found || st.Bytes != 0 {
				panic("iprobe after consume should find nothing")
			}
		} else {
			r.Send(c, 0, 9, 32)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeProcNull(t *testing.T) {
	// A probe of MPI_PROC_NULL completes at once, with the status a
	// receive from MPI_PROC_NULL returns; no rank ever sends to it.
	_, err := newTestWorld(2).Run(func(r *Rank) {
		c := r.World()
		want := r.Recv(c, ProcNull, 3)
		if st := r.Probe(c, ProcNull, 3); st != want {
			panic(fmt.Sprintf("Probe(ProcNull) status %+v, want %+v", st, want))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobeProcNull(t *testing.T) {
	// An Iprobe of MPI_PROC_NULL finds at once. The deadline ends the run
	// should it poll instead.
	w := NewWorld(Config{Size: 1, Deadline: vtime.Duration(10e-3)})
	polls := 0
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		want := r.Recv(c, ProcNull, AnyTag)
		for {
			polls++
			found, st := r.Iprobe(c, ProcNull, AnyTag)
			if found {
				if st != want {
					panic(fmt.Sprintf("Iprobe(ProcNull) status %+v, want %+v", st, want))
				}
				return
			}
		}
	})
	if err != nil {
		t.Fatalf("after %d polls: %v", polls, err)
	}
	if polls != 1 {
		t.Errorf("Iprobe(ProcNull) found after %d polls, want 1", polls)
	}
}

func TestWaitany(t *testing.T) {
	w := newTestWorld(3)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r1 := r.Irecv(c, 1, 0)
			r2 := r.Irecv(c, 2, 0)
			idx, st := r.Waitany([]Req{r1, r2})
			if idx < 0 || st.Bytes == 0 {
				panic("waitany resolved nothing")
			}
			// The other one still completes.
			other := r1
			if idx == 0 {
				other = r2
			}
			r.Wait(other)
		} else {
			r.Compute(perfmodel.Kernel{IntOps: int64(r.Rank()) * 1e8})
			r.Send(c, 0, 0, 100*r.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitanyPicksEarliest(t *testing.T) {
	// Rank 1's message precedes rank 2's both virtually and causally
	// (rank 2 sends only after receiving rank 1's token): Waitany must
	// resolve to it.
	w := newTestWorld(3)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		switch r.Rank() {
		case 0:
			r1 := r.Irecv(c, 1, 0)
			r2 := r.Irecv(c, 2, 0)
			r.Compute(perfmodel.Kernel{IntOps: 5e9}) // let both arrive
			idx, st := r.Waitany([]Req{r1, r2})
			if idx != 0 || st.Source != 1 {
				panic("waitany should resolve the earliest completion")
			}
			r.Wait(r2)
		case 1:
			r.Send(c, 0, 0, 8)
			r.Send(c, 2, 7, 8) // token: orders rank 2 behind rank 1
		case 2:
			r.Recv(c, 1, 7)
			r.Compute(perfmodel.Kernel{IntOps: 2e9})
			r.Send(c, 0, 0, 8)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTestall(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			r1 := r.Irecv(c, 1, 0)
			r2 := r.Irecv(c, 1, 1)
			for !r.Testall([]Req{r1, r2}) {
				r.Compute(perfmodel.Kernel{IntOps: 1e6})
			}
		} else {
			r.Send(c, 0, 0, 16)
			r.Send(c, 0, 1, 16)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanExscanReduceScatter(t *testing.T) {
	w := newTestWorld(8)
	res, err := w.Run(func(r *Rank) {
		c := r.World()
		r.Scan(c, 64, OpSum)
		r.Exscan(c, 64, OpSum)
		r.ReduceScatter(c, 128, OpMax)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatal("collectives should cost time")
	}
	for i := range res.Ranks {
		if res.Ranks[i].Calls != 3 {
			t.Errorf("rank %d made %d calls", i, res.Ranks[i].Calls)
		}
	}
}

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		n, d int
		want []int
	}{
		{8, 3, []int{2, 2, 2}},
		{16, 2, []int{4, 4}},
		{12, 2, []int{4, 3}},
		{7, 2, []int{7, 1}},
		{1, 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got, err := DimsCreate(c.n, c.d)
		if err != nil {
			t.Fatalf("DimsCreate(%d,%d): %v", c.n, c.d, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("DimsCreate(%d,%d) = %v, want %v", c.n, c.d, got, c.want)
		}
		prod := 1
		for _, v := range got {
			prod *= v
		}
		if prod != c.n {
			t.Errorf("DimsCreate(%d,%d) does not cover: %v", c.n, c.d, got)
		}
	}
	for _, bad := range [][2]int{{0, 2}, {8, 0}, {-1, 3}} {
		var mpiErr *MPIError
		if _, err := DimsCreate(bad[0], bad[1]); !errors.As(err, &mpiErr) || mpiErr.Class != ErrDims {
			t.Errorf("DimsCreate(%d,%d) = %v, want MPI_ERR_DIMS", bad[0], bad[1], err)
		}
	}
}

func TestCartTopology(t *testing.T) {
	w := newTestWorld(12)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		cart, err := CartCreate(c, []int{4, 3}, []bool{true, false})
		if err != nil {
			panic(err)
		}
		coords := cart.Coords(r.Rank())
		if back := cart.RankOf(coords); back != r.Rank() {
			panic("coords round trip failed")
		}
		// Shift along the periodic dimension always resolves.
		src, dst := cart.Shift(r.Rank(), 0, 1)
		if src == ProcNull || dst == ProcNull {
			panic("periodic shift should wrap")
		}
		// Shift along the non-periodic dimension hits ProcNull at edges.
		_, dst1 := cart.Shift(r.Rank(), 1, 1)
		if coords[1] == 2 && dst1 != ProcNull {
			panic("non-periodic edge should be ProcNull")
		}
		// Use the topology for a real halo exchange.
		r.Sendrecv(c, dst, 0, 256, src, 0)
		_ = dst1
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCreateValidation(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		if _, err := CartCreate(r.World(), []int{3, 2}, nil); err == nil {
			panic("dims not covering size should error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
