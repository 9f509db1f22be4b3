//go:build race

package qp

// raceEnabled gates the allocation pin, since race instrumentation adds
// allocations.
const raceEnabled = true
