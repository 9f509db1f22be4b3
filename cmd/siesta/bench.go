package main

import (
	"flag"
	"fmt"
	"os"

	"siesta/internal/experiments"
)

// runBench implements the `siesta bench` verb: it regenerates the paper's
// evaluation tables through the shared experiments driver; see
// EXPERIMENTS.md. Without -exp it prints its usage and exits 2.
func runBench(args []string) {
	fs := flag.NewFlagSet("siesta bench", flag.ExitOnError)
	exp := fs.String("exp", "", "experiments to regenerate: table3, fig4..fig9, ablations, or all")
	quick := fs.Bool("quick", false, "trim rank ladders and iterations for a fast pass")
	seed := fs.Uint64("seed", 1, "base random seed")
	fs.Parse(args)

	if *exp == "" {
		fs.Usage()
		os.Exit(2)
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	if err := experiments.RunCLI(cfg, *exp, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "siesta bench: %v\n", err)
		os.Exit(1)
	}
}
