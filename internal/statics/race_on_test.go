//go:build race

package statics_test

// raceEnabled gates the allocation pins: race instrumentation adds
// allocations, and sync.Pool drops a random share of Puts under it.
const raceEnabled = true
