// Package siesta is a from-scratch Go reproduction of "Siesta: Synthesizing
// Proxy Applications for MPI Programs" (CLUSTER 2024): a framework that
// traces an MPI program's communication and computation events, compresses
// the trace into context-free grammars (space-optimized Sequitur plus
// SPMD-aware inter-process merging), searches linear combinations of
// predefined code blocks that mimic each computation phase's hardware
// counters via a constrained quadratic program, and generates a synthetic
// proxy application with the same performance characteristics.
//
// Because Go has no MPI bindings, the repository includes a complete
// simulated substrate: an in-process MPI runtime with virtual time
// (internal/mpi), analytic hardware and network models for the paper's three
// platforms and three MPI implementations (internal/platform,
// internal/perfmodel, internal/netmodel), skeleton reimplementations of the
// nine evaluated MPI programs (internal/apps), and reimplementations of the
// compared systems MINIME, ScalaBench and Pilgrim (internal/baselines).
//
// Entry points:
//
//   - internal/core.Synthesize — the full pipeline as a library call
//   - cmd/siesta — trace + generate + report CLI; `siesta bench -exp`
//     regenerates every table and figure of the paper, and `siesta
//     inspect` reads trace files
//   - examples/ — runnable scenarios
//
// The benchmarks in this directory (bench_test.go) wrap the evaluation
// drivers of internal/experiments, one per table/figure, plus the ablations
// called out in DESIGN.md and the parallel-pipeline benchmarks that carry
// CI's speed-up gates.
package siesta
