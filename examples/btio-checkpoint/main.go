// BT-IO checkpointing: the I/O-trace extension the paper's §2.1 sketches
// ("the process of I/O trace is similar to that of communication trace").
// BT's solver is augmented with periodic collective checkpoint writes to a
// shared file; Siesta traces the MPI-IO calls alongside communication and
// computation, renames file handles through the same free-number pools,
// encodes file offsets relative to the rank (collapsing the per-rank block
// pattern to one terminal), and replays the I/O with a parallel-filesystem
// cost model.
//
//	go run ./examples/btio-checkpoint
package main

import (
	"fmt"
	"log"
	"strings"

	"siesta/internal/apps"
	"siesta/internal/core"
	"siesta/internal/mpicall"
)

func main() {
	const ranks = 9
	spec, err := apps.ByName("BTIO")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== %s ===\n", spec.Description)
	fn, err := spec.Build(apps.Params{Ranks: ranks})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Synthesize(fn, core.Options{Ranks: ranks, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}

	h := res.Trace.FuncHistogram()
	fmt.Println("traced I/O events:")
	for _, f := range []mpicall.Func{mpicall.FileOpen, mpicall.FileWriteAtAll, mpicall.FileReadAtAll, mpicall.FileClose} {
		fmt.Printf("  %-24s %6d\n", f, h[f.String()])
	}

	prox, err := res.RunProxy(nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noriginal %.5gs vs proxy %.5gs (time error %.2f%%)\n",
		float64(res.BaselineRun.ExecTime), float64(prox.ExecTime),
		core.TimeError(float64(prox.ExecTime), float64(res.BaselineRun.ExecTime))*100)

	// The generated C carries the MPI-IO calls.
	fmt.Println("\nMPI-IO lines in the generated proxy-app:")
	shown := 0
	for _, line := range strings.Split(res.Generated.CSource(), "\n") {
		if strings.Contains(line, "MPI_File") && shown < 5 {
			fmt.Println("  " + strings.TrimSpace(line))
			shown++
		}
	}
}
