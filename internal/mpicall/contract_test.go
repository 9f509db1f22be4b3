package mpicall_test

import (
	"errors"
	"strings"
	"testing"

	"siesta/internal/blocks"
	"siesta/internal/codegen"
	"siesta/internal/merge"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
	"siesta/internal/proxy"
	"siesta/internal/trace"
)

// record builds a terminal for f whose partners are MPI_PROC_NULL and
// whose handles are pool 0, so a one-rank replay of it ends.
func record(f mpicall.Func) *trace.Record {
	return &trace.Record{
		Func: f, DestRel: trace.NoRank, SrcRel: trace.NoRank, Tag: 1, RecvTag: 1,
		Bytes: 8, Root: 0, NewCommPool: 1, Counts: []int{8}, FileName: "contract.dat",
	}
}

// TestEveryCallEveryLayer is the table's contract: every call it lists
// round-trips its name through Parse and the record codec, renders as C,
// and is dispatched by the replayer. A row added without support in one
// of those layers fails here.
func TestEveryCallEveryLayer(t *testing.T) {
	all := mpicall.All()
	if len(all) == 0 {
		t.Fatal("empty table")
	}
	for _, f := range all {
		t.Run(f.String(), func(t *testing.T) {
			if d := f.Desc(); !strings.HasPrefix(d.Name, "MPI_") || d.Kind == 0 {
				t.Fatalf("row %d has name %q and kind %d", f, d.Name, d.Kind)
			}
			if got, ok := mpicall.Parse(f.String()); !ok || got != f {
				t.Errorf("Parse(%q) = %v, %t", f.String(), got, ok)
			}

			var e trace.Enc
			trace.EncodeRecord(&e, record(f))
			var back trace.Record
			if err := trace.DecodeRecord(trace.NewDec(e.Bytes()), &back); err != nil || back.Func != f {
				t.Errorf("record round trip: %v, %v", back.Func, err)
			}

			g := &codegen.Generated{
				Prog:   &merge.Program{NumRanks: 1, Terminals: []*trace.Record{record(f)}},
				Combos: []blocks.Combination{{}},
			}
			if src := g.CSource(); strings.Contains(src, "unsupported") {
				t.Errorf("C source renders no call:\n%s", src)
			}

			if f != mpicall.Compute {
				if err := replayOne(t, record(f)); err != nil {
					t.Errorf("replay: %v", err)
				}
			}
		})
	}
}

// replayOne replays rec on a one-rank world and returns an "unsupported
// function" divergence, nil otherwise: any other outcome, a divergence on
// a handle or a runtime error, means the replayer dispatched the call.
func replayOne(t *testing.T, rec *trace.Record) error {
	t.Helper()
	var got error
	w := mpi.NewWorld(mpi.Config{Size: 1})
	w.Run(func(r *mpi.Rank) {
		got = proxy.NewReplayer(r.World()).ExecComm(r, rec)
	})
	var div *proxy.DivergenceError
	if errors.As(got, &div) && strings.Contains(div.Reason, "unsupported function") {
		return got
	}
	return nil
}

// TestOutOfTable: a Func past the table has no name, kind or property,
// and no string outside the table parses.
func TestOutOfTable(t *testing.T) {
	var zero mpicall.Func
	for _, f := range []mpicall.Func{zero, mpicall.Func(0xff)} {
		if f.Desc() != (mpicall.Desc{}) {
			t.Errorf("%v has a descriptor", f)
		}
		if strings.HasPrefix(f.String(), "MPI_") {
			t.Errorf("%d renders as a call name %q", f, f.String())
		}
	}
	for _, name := range []string{"", "MPI_Win_lock", "MPI_Startall", "mpi_send", "MPI_Send "} {
		if f, ok := mpicall.Parse(name); ok {
			t.Errorf("Parse(%q) = %v", name, f)
		}
	}
}
