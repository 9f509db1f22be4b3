package trace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodeNeverPanicsOnCorruption flips random bytes in valid encodings
// and truncates them at random points: Decode must return an error or a
// trace, never panic. (Decoding untrusted trace files is a real workflow —
// `siesta inspect` reads whatever path it is given.)
func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	tr, _ := traceRing(t, 4, 4)
	data := tr.Encode()
	rng := rand.New(rand.NewSource(7))
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Decode panicked: %v", p)
		}
	}()
	for trial := 0; trial < 500; trial++ {
		corrupted := append([]byte(nil), data...)
		// Random byte flips.
		for n := rng.Intn(8); n >= 0; n-- {
			corrupted[rng.Intn(len(corrupted))] ^= byte(1 << rng.Intn(8))
		}
		// Random truncation half the time.
		if rng.Intn(2) == 0 {
			corrupted = corrupted[:rng.Intn(len(corrupted)+1)]
		}
		if got, err := Decode(corrupted); err == nil && got != nil {
			// A lucky corruption that still decodes must still be
			// structurally sane enough to walk.
			_ = got.TotalEvents()
			_ = got.FuncHistogram()
		}
	}
}

// TestDecodeArbitraryBytes feeds fully random buffers to Decode.
func TestDecodeArbitraryBytes(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked on arbitrary bytes")
			}
		}()
		got, err := Decode(data)
		return err != nil || got != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeHostileLengths hand-crafts encodings whose length prefixes
// promise far more data than exists; allocations must not explode and
// decoding must fail cleanly.
func TestDecodeHostileLengths(t *testing.T) {
	var e Enc
	e.Str("SIESTA-TRACE1")
	e.Int(1 << 30) // ludicrous rank count
	e.Str("A")
	e.Str("openmpi")
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("hostile rank count panicked: %v", p)
		}
	}()
	if _, err := Decode(e.Bytes()); err == nil {
		t.Fatal("hostile rank count should fail to decode")
	}
}
