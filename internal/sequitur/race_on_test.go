//go:build race

package sequitur

// raceEnabled gates the allocation pin, since race instrumentation adds
// allocations, and trims the differential test, which the detector slows
// about tenfold.
const raceEnabled = true
