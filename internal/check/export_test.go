package check

import (
	"testing"

	"siesta/internal/mpicall"
	"siesta/internal/trace"
)

// MachineRuns reports how many times this process has run the abstract
// machine (Verify calls).
func MachineRuns() int64 { return machineRuns.Load() }

// HandBuiltCorpus lends the hand-built corpus — the negative programs that
// must be flagged, the clean ones beside them and the pinned diagnostic
// anchors — to the external tests.
var HandBuiltCorpus = []struct {
	Name string
	Run  func(*testing.T)
}{
	{"CleanNonblockingRing", TestCleanNonblockingRing},
	{"SendRecvCycleDeadlock", TestSendRecvCycleDeadlock},
	{"UnmatchedSendIsWarning", TestUnmatchedSendIsWarning},
	{"LeakedIrecvIsError", TestLeakedIrecvIsError},
	{"ByteMismatch", TestByteMismatch},
	{"ZeroByteMismatch", TestZeroByteMismatch},
	{"CollectiveFuncMismatch", TestCollectiveFuncMismatch},
	{"CollectiveRootMismatch", TestCollectiveRootMismatch},
	{"MissingCollectiveParticipant", TestMissingCollectiveParticipant},
	{"MismatchedCollectiveOrderAcrossComms", TestMismatchedCollectiveOrderAcrossComms},
	{"CommLifecycle", TestCommLifecycle},
	{"WaitOnDanglingRequest", TestWaitOnDanglingRequest},
	{"WaitOnNeverSentMessage", TestWaitOnNeverSentMessage},
	{"WildcardRecvClean", TestWildcardRecvClean},
	{"EagerCompletionClean", TestEagerCompletionClean},
	{"SsendMatchedClean", TestSsendMatchedClean},
	{"PersistentRequestClean", TestPersistentRequestClean},
	{"DoubleStartFlagged", TestDoubleStartFlagged},
	{"TestPollAmbiguityTolerated", TestTestPollAmbiguityTolerated},
	{"FileLifecycle", TestFileLifecycle},
	{"MaxDiagnosticsTruncates", TestMaxDiagnosticsTruncates},
	{"SummaryClean", TestSummaryClean},
	{"DiagnosticPathsPinned", TestDiagnosticPathsPinned},
}

// poison is what a released object holds until it is handed out again:
// indices far outside every table, ids no live object carries, nil
// pointers and flags set the wrong way, so a use after release panics or
// changes a report.
const poison = -0x5eedbad

var poisonRecord = &trace.Record{Func: poisonFunc, Bytes: poison, Tag: poison}

// poisonFunc is a call outside the table.
const poisonFunc = mpicall.Func(0xff)

// PoisonReleased fills every object the machine releases with poison and
// tells released its kind ("vmsg", "vrecv", "vreq" or "vslot"). The caller
// must restore before another machine can run; released may be called from
// several goroutines at once.
func PoisonReleased(released func(kind string)) (restore func()) {
	releaseHook = func(x any) {
		switch x := x.(type) {
		case *vmsg:
			*x = vmsg{id: poison, src: poison, dst: poison, commID: poison, tag: poison, bytes: poison,
				ev: evRef{poison, poison}, term: poison, matched: true, synchronous: true}
			released("vmsg")
		case *vrecv:
			*x = vrecv{owner: poison, commID: poison, src: poison, tag: poison, bytes: poison,
				ev: evRef{poison, poison}, term: poison, msgID: poison, orphan: true}
			released("vrecv")
		case *vreq:
			*x = vreq{kind: poison, persistent: true, active: true, polled: true, rec: poisonRecord,
				ev: evRef{poison, poison}}
			released("vreq")
		case *vslot:
			arrived := x.arrived
			for i := range arrived {
				arrived[i] = poisonRecord
			}
			*x = vslot{seq: poison, fn: poisonFunc, root: poison, op: "poisoned", firstEv: evRef{poison, poison},
				arrived: arrived, arrivedN: poison, full: true, flagged: true, refs: poison}
			released("vslot")
		}
	}
	return func() { releaseHook = nil }
}
