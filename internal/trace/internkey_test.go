package trace

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/mpi"
)

// panelRecords records every built-in app at 16, 27 and 64 ranks, as each
// app accepts, with the benchmark panel's per-entry seed (the FNV-1a hash
// of "app/ranks") and the pipeline's default noise and run variation, and
// returns the table records of every rank.
func panelRecords(t *testing.T) []*Record {
	t.Helper()
	var out []*Record
	for _, spec := range apps.All() {
		for _, n := range []int{16, 27, 64} {
			if !spec.ValidRanks(n) {
				continue
			}
			fn, err := spec.Build(apps.Params{Ranks: n})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write([]byte(spec.Name + "/" + strconv.Itoa(n)))
			rec := NewRecorder(n, Config{})
			w := mpi.NewWorld(mpi.Config{Size: n, NoiseSigma: 0.004, RunVariation: 0.02,
				Seed: h.Sum64()%1_000_000 + 1, Interceptor: rec})
			if _, err := w.Run(fn); err != nil {
				t.Fatalf("%s/%d: %v", spec.Name, n, err)
			}
			for _, rt := range rec.Trace("A", "openmpi").Ranks {
				out = append(out, rt.Table...)
			}
		}
	}
	return out
}

// TestInternKeyAgreesWithKeyString: over the sample records and every
// record of the recorded panel traces, two records share a binary intern
// key exactly when they share a KeyString, so interning by either key
// builds the same tables.
func TestInternKeyAgreesWithKeyString(t *testing.T) {
	recs := append(sampleRecords(), panelRecords(t)...)
	textOf := map[string]string{} // intern key -> KeyString
	internOf := map[string]string{}
	for _, r := range recs {
		bin, text := string(r.appendInternKey(nil)), r.KeyString()
		if prev, ok := textOf[bin]; ok && prev != text {
			t.Fatalf("intern key collision: %q and %q", prev, text)
		}
		if prev, ok := internOf[text]; ok && prev != bin {
			t.Fatalf("KeyString %q has two intern keys", text)
		}
		textOf[bin], internOf[text] = text, bin
	}
	if len(textOf) < 100 {
		t.Fatalf("only %d distinct terminals: the panel did not record", len(textOf))
	}
}

// fuzzRecord builds a record from arbitrary bytes, field by field, so the
// fuzzer reaches every field class, including strings holding the
// separators of the text key.
func fuzzRecord(data []byte) *Record {
	num := func() int {
		v, n := binary.Varint(data)
		if n <= 0 {
			if len(data) == 0 {
				return 0
			}
			v, n = int64(int8(data[0])), 1
		}
		data = data[n:]
		return int(v)
	}
	str := func() string {
		n := min(num()&15, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	ints := func() []int {
		var vs []int
		for n := num() & 7; n > 0; n-- {
			vs = append(vs, num())
		}
		return vs
	}
	r := &Record{Func: str(), DestRel: num(), SrcRel: num(), Tag: num(), Bytes: num(),
		RecvTag: num(), Root: num(), Op: str(), CommPool: num(), NewCommPool: num(), ReqPool: num()}
	r.ReqPools, r.Counts = ints(), ints()
	r.Color, r.Key, r.ComputeCluster, r.FilePool, r.OffsetRel = num(), num(), num(), num(), num()
	r.FileName = str()
	return r
}

// parseInternKey inverts appendInternKey, or reports false.
func parseInternKey(b []byte) (*Record, bool) {
	ok := true
	num := func() int {
		v, n := binary.Varint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return int(v)
	}
	length := func() int {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > uint64(len(b)-n) {
			ok = false
			return 0
		}
		b = b[n:]
		return int(v)
	}
	str := func() string {
		n := length()
		s := string(b[:n])
		b = b[n:]
		return s
	}
	ints := func() []int {
		var vs []int
		for n := length(); n > 0 && ok; n-- {
			vs = append(vs, num())
		}
		return vs
	}
	r := &Record{Func: str(), DestRel: num(), SrcRel: num(), Tag: num(), Bytes: num(),
		RecvTag: num(), Root: num(), Op: str(), CommPool: num(), NewCommPool: num(), ReqPool: num()}
	r.ReqPools, r.Counts = ints(), ints()
	r.Color, r.Key, r.ComputeCluster, r.FilePool, r.OffsetRel = num(), num(), num(), num(), num()
	r.FileName = str()
	return r, ok && len(b) == 0
}

// FuzzInternKey: equal intern keys imply equal KeyStrings, and each intern
// key parses back to a record with its record's KeyString, so the
// rendering is injective on every record the fuzzer builds.
func FuzzInternKey(f *testing.F) {
	f.Add([]byte("\x10MPI_Send\x06\x00"), []byte("\x10MPI_Send\x06\x00"))
	f.Add([]byte("\x02a|\x02\x04"), []byte("\x02a\x02|\x04"))
	f.Add([]byte("\x06MPI_Compute\x01\x02\x03"), []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := fuzzRecord(a), fuzzRecord(b)
		ka, kb := ra.appendInternKey(nil), rb.appendInternKey(nil)
		if string(ka) == string(kb) && ra.KeyString() != rb.KeyString() {
			t.Fatalf("equal intern keys, different KeyStrings %q and %q", ra.KeyString(), rb.KeyString())
		}
		for _, p := range []struct {
			r   *Record
			key []byte
		}{{ra, ka}, {rb, kb}} {
			back, ok := parseInternKey(p.key)
			if !ok || back.KeyString() != p.r.KeyString() {
				t.Fatalf("intern key of %q parses back to %v, %v", p.r.KeyString(), back, ok)
			}
		}
	})
}
