package check

import (
	"fmt"
	"testing"

	"siesta/internal/merge"
	"siesta/internal/rankset"
	"siesta/internal/trace"
)

// loopedProgram is a 2-rank program built in memory, so its grammar shape is
// fixed rather than whatever Sequitur infers:
//
//	R0 = T0 T1            (send right 64 B, receive from the right 64 B)
//	R1 = R0×3 T2          (three exchanges, then a barrier)
//	main[0] = R1×2        ranks {0,1}
//	main[1] = T3          rank 0 only
//	main[2] = R0×2        rank 0 only
//	main[3] = T4          rank 1 only
//	main[4] = R1×1        rank 1 only
//
// T3 is a 64-byte send that rank 1 receives as 32 bytes (T4). Rank 1 then
// enters a third round of three exchanges, of which rank 0 joins two.
func loopedProgram() *merge.Program {
	both := rankset.New(0, 1)
	return &merge.Program{
		NumRanks: 2,
		Terminals: []*trace.Record{
			send(1, 0, 64), recv(1, 0, 64), barrier(0), send(1, 5, 64), recv(1, 5, 32),
		},
		Rules: [][]merge.Sym{
			{{Ref: 0, Count: 1}, {Ref: 1, Count: 1}},
			{{Ref: 0, IsRule: true, Count: 3}, {Ref: 2, Count: 1}},
		},
		Mains: []merge.Main{{
			Ranks: both,
			Body: []merge.MainSym{
				{Sym: merge.Sym{Ref: 1, IsRule: true, Count: 2}, Ranks: both},
				{Sym: merge.Sym{Ref: 3, Count: 1}, Ranks: rankset.Single(0)},
				{Sym: merge.Sym{Ref: 0, IsRule: true, Count: 2}, Ranks: rankset.Single(0)},
				{Sym: merge.Sym{Ref: 4, Count: 1}, Ranks: rankset.Single(1)},
				{Sym: merge.Sym{Ref: 1, IsRule: true, Count: 1}, Ranks: rankset.Single(1)},
			},
		}},
	}
}

// TestDiagnosticPathsPinned pins the exact anchor — grammar path, terminal
// and event index — of diagnostics from the negative corpus. Paths are what a
// human follows into the compressed program, so they must not drift when the
// expansion code underneath them changes.
func TestDiagnosticPathsPinned(t *testing.T) {
	traced := func(ranks [][]*trace.Record) func(*testing.T) *merge.Program {
		return func(t *testing.T) *merge.Program { return buildProgram(t, ranks) }
	}
	cases := []struct {
		name string
		prog func(*testing.T) *merge.Program
		opts Options
		want []string // "rule ranks record event path", in report order
	}{
		{
			name: "looped",
			prog: func(*testing.T) *merge.Program { return loopedProgram() },
			opts: Options{ExactBytes: true},
			want: []string{
				"p2p-bytes [0 1] 3 14 main[1]/T3",
				"static-deadlock [1] 1 20 main[4]/R1[0]/R0[1]/T1",
				"p2p-unmatched-send [0 1] 0 19 main[4]/R1[0]/R0[0]/T0",
				"p2p-unmatched-recv [1] 1 20 main[4]/R1[0]/R0[1]/T1",
			},
		},
		{
			name: "send-recv-cycle",
			prog: traced([][]*trace.Record{
				{recv(1, 0, 64), send(1, 0, 64)},
				{recv(1, 0, 64), send(1, 0, 64)},
			}),
			want: []string{
				"static-deadlock [0 1] 0 0 main[0]/T0",
				"p2p-unmatched-recv [1] 0 0 main[0]/T0",
				"p2p-unmatched-recv [0] 0 0 main[0]/T0",
			},
		},
		{
			name: "byte-mismatch-after-loop",
			prog: traced([][]*trace.Record{
				append(repeat(8, send(1, 0, 64), recv(1, 0, 64)), send(1, 1, 128)),
				append(repeat(8, send(1, 0, 64), recv(1, 0, 64)), recv(1, 1, 64)),
			}),
			opts: Options{ExactBytes: true},
			want: []string{"p2p-bytes [0 1] 2 16 main[1]/T2"},
		},
		{
			name: "unmatched-send-in-loop",
			prog: traced([][]*trace.Record{
				repeat(8, send(1, 0, 64), send(1, 1, 64)),
				repeat(7, recv(1, 0, 64), recv(1, 1, 64)),
			}),
			want: []string{
				"p2p-unmatched-send [0 1] 0 14 main[0]/R0[0]/T0",
				"p2p-unmatched-send [0 1] 1 15 main[0]/R0[1]/T1",
			},
		},
		{
			name: "leaked-irecv",
			prog: traced([][]*trace.Record{
				{irecv(1, 7, 0)},
				{rec("MPI_Compute", nil)},
			}),
			want: []string{
				"request-leak [0] 0 0 main[0]/T0",
				"p2p-unmatched-recv [0] 0 0 main[0]/T0",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Verify(c.prog(t), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range rep.Diags {
				got = append(got, fmt.Sprintf("%s %v %d %d %s", d.Rule, d.Ranks, d.Record, d.Event, d.Path))
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("diagnostic anchors:\n got %q\nwant %q", got, c.want)
			}
		})
	}
}

// repeat returns n copies of the pattern, back to back.
func repeat(n int, pattern ...*trace.Record) []*trace.Record {
	var out []*trace.Record
	for i := 0; i < n; i++ {
		out = append(out, pattern...)
	}
	return out
}
