package check

import (
	"fmt"
	"sort"
	"strings"

	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// Static deadlock detection: once the greedy fixpoint stalls with ranks
// still mid-sequence, those ranks are permanently stuck (abstract
// transitions are monotone, so no later schedule could unblock them). The
// match-order graph has an edge from each stuck rank to every rank it is
// waiting on; a cycle is the static analogue of the runtime detector's
// wait-for cycle, and acyclic stuck states (a peer that exited early) mirror
// the runtime's "peer finished" deadlocks.

func (m *machine) reportDeadlock() {
	var blocked []*lrank
	for i := range m.ranks {
		if r := &m.ranks[i]; !r.done {
			blocked = append(blocked, r)
		}
	}
	if len(blocked) == 0 {
		return
	}
	edges := map[int][]int{}
	ranks := make([]int, 0, len(blocked))
	descs := make([]string, 0, len(blocked))
	for _, r := range blocked {
		desc, to := m.blockInfo(r)
		edges[r.rank] = to
		ranks = append(ranks, r.rank)
		descs = append(descs, fmt.Sprintf("rank %d in %s", r.rank, desc))
	}
	msg := "no blocked rank can make further progress: " + strings.Join(descs, "; ")
	if cycle := findCycle(edges); cycle != nil {
		parts := make([]string, len(cycle))
		for i, n := range cycle {
			parts[i] = fmt.Sprintf("%d", n)
		}
		msg += "; dependency cycle: " + strings.Join(parts, " -> ")
	}
	m.diag(Error, RuleDeadlock, ranks, evRef{blocked[0].rank, blocked[0].pc}, "%s", msg)
}

// blockInfo describes what a stuck rank is blocked in and which ranks it is
// waiting on (the outgoing match-order edges).
func (m *machine) blockInfo(r *lrank) (string, []int) {
	rec := m.p.Terminals[r.term]
	switch {
	case r.curRecv != nil:
		return fmt.Sprintf("%s from %s tag %s", rec.Func,
				peerName(r.curRecv.src), tagName(r.curRecv.tag)),
			recvEdges(r.curRecv)
	case r.curMsg != nil:
		return fmt.Sprintf("MPI_Ssend to rank %d tag %d", r.curMsg.dst, r.curMsg.tag),
			[]int{r.curMsg.dst}
	case r.curSlot != nil:
		slot := r.curSlot
		return fmt.Sprintf("%s (collective step %d, %d/%d arrived)",
				rec.Func, slot.seq, slot.arrivedN, len(slot.comm.members)),
			slotEdges(slot)
	}
	switch rec.Func {
	case mpicall.Probe:
		if c := r.comms.get(rec.CommPool); c != nil {
			if src, ok := m.peerOf(c, r.rank, rec.SrcRel); ok {
				return fmt.Sprintf("MPI_Probe from %s tag %s", peerName(src), tagName(rec.Tag)),
					recvEdges(&vrecv{owner: r.rank, comm: c, src: src})
			}
		}
		return mpicall.Probe.String(), nil
	case mpicall.Wait, mpicall.Waitany:
		if req := r.reqs.get(rec.ReqPool); req != nil {
			desc, to := reqBlock(req)
			return fmt.Sprintf("%s on %s", rec.Func, desc), to
		}
	case mpicall.Waitall:
		var to []int
		var pending []string
		for _, q := range rec.ReqPools {
			if req := r.reqs.get(q); req != nil && !reqDone(req) {
				desc, e := reqBlock(req)
				pending = append(pending, desc)
				to = append(to, e...)
			}
		}
		return fmt.Sprintf("MPI_Waitall on %s", strings.Join(pending, ", ")), to
	}
	return rec.Func.String(), nil
}

// reqBlock describes an undone request and its match-order edges.
func reqBlock(req *vreq) (string, []int) {
	fn := "request"
	if req.rec != nil {
		fn = req.rec.Func.String()
	}
	switch req.kind {
	case rkRecv:
		if req.recv != nil && req.recv.msgID < 0 {
			return fmt.Sprintf("%s from %s tag %s", fn,
				peerName(req.recv.src), tagName(req.recv.tag)), recvEdges(req.recv)
		}
	case rkColl:
		if req.slot != nil && !req.slot.full {
			return fmt.Sprintf("%s (collective step %d, %d/%d arrived)",
				fn, req.slot.seq, req.slot.arrivedN, len(req.slot.comm.members)), slotEdges(req.slot)
		}
	}
	return fn, nil
}

// recvEdges: a receive waits on its source; a wildcard receive could be
// satisfied by any other member of the communicator.
func recvEdges(pr *vrecv) []int {
	if pr.src != anyPeer {
		return []int{pr.src}
	}
	var to []int
	for _, wr := range pr.comm.members {
		if wr != pr.owner {
			to = append(to, wr)
		}
	}
	return to
}

// slotEdges: a collective waits on every member that has not arrived.
func slotEdges(slot *vslot) []int {
	var to []int
	for cr, wr := range slot.comm.members {
		if slot.arrived[cr] == nil {
			to = append(to, wr)
		}
	}
	return to
}

func peerName(src int) string {
	if src == anyPeer {
		return "MPI_ANY_SOURCE"
	}
	return fmt.Sprintf("rank %d", src)
}

func tagName(tag int) string {
	if tag == anyPeer {
		return "MPI_ANY_TAG"
	}
	if tag == trace.NoRank {
		return "none"
	}
	return fmt.Sprintf("%d", tag)
}

// findCycle looks for a cycle in the match-order graph restricted to
// blocked ranks (edges to ranks that ran to completion cannot close a
// cycle). It returns the cycle as a rank walk ending where it starts, or
// nil.
func findCycle(edges map[int][]int) []int {
	const (
		unseen = iota
		inStack
		finished
	)
	state := map[int]int{}
	var stack []int
	var dfs func(n int) []int
	dfs = func(n int) []int {
		state[n] = inStack
		stack = append(stack, n)
		for _, to := range edges[n] {
			if _, blocked := edges[to]; !blocked {
				continue
			}
			switch state[to] {
			case unseen:
				if c := dfs(to); c != nil {
					return c
				}
			case inStack:
				for i, v := range stack {
					if v == to {
						return append(append([]int(nil), stack[i:]...), to)
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = finished
		return nil
	}
	nodes := make([]int, 0, len(edges))
	for n := range edges { //maporder:ok — sorted below
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		if state[n] == unseen {
			if c := dfs(n); c != nil {
				return c
			}
		}
	}
	return nil
}
