package mpi

import "testing"

func TestPersistentRequestLifecycle(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		other := 1 - r.Rank()
		var sreq, rreq Req
		if r.Rank() == 0 {
			sreq = r.SendInit(c, other, 5, 2048)
			if !sreq.Persistent() {
				panic("SendInit should create a persistent request")
			}
		} else {
			rreq = r.RecvInit(c, other, 5)
		}
		for it := 0; it < 5; it++ {
			if r.Rank() == 0 {
				r.Start(sreq)
				r.Wait(sreq)
			} else {
				r.Start(rreq)
				st := r.Wait(rreq)
				if st.Bytes != 2048 || st.Source != 0 {
					panic("persistent receive resolved wrong status")
				}
			}
		}
		if r.Rank() == 0 {
			r.RequestFree(sreq)
			if sreq.Persistent() {
				panic("freed request should no longer be persistent")
			}
		} else {
			r.RequestFree(rreq)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistentRendezvous(t *testing.T) {
	// Persistent sends above the eager threshold must synchronize per
	// Start like regular rendezvous transfers.
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		other := 1 - r.Rank()
		if r.Rank() == 0 {
			req := r.SendInit(c, other, 0, 1<<20)
			for it := 0; it < 3; it++ {
				r.Start(req)
				r.Wait(req)
			}
			r.RequestFree(req)
		} else {
			req := r.RecvInit(c, other, 0)
			for it := 0; it < 3; it++ {
				r.Start(req)
				r.Wait(req)
			}
			r.RequestFree(req)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStartOnOrdinaryRequestPanics(t *testing.T) {
	w := newTestWorld(2)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		if r.Rank() == 0 {
			req := r.Irecv(c, 1, 0)
			r.Start(req) // must panic
			r.Wait(req)
		} else {
			r.Send(c, 0, 0, 8)
		}
	})
	if err == nil {
		t.Fatal("Start on ordinary request should abort")
	}
}

func TestStartallAndWaitall(t *testing.T) {
	w := newTestWorld(4)
	_, err := w.Run(func(r *Rank) {
		c := r.World()
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		reqs := []Req{
			r.RecvInit(c, prev, 9),
			r.SendInit(c, next, 9, 512),
		}
		for it := 0; it < 4; it++ {
			r.Startall(reqs)
			r.Waitall(reqs)
		}
		r.RequestFree(reqs[0])
		r.RequestFree(reqs[1])
	})
	if err != nil {
		t.Fatal(err)
	}
}
