package trace

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
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

// internClones interns clones of recs into one fresh rank table, as the
// recorder does, and returns each record's id.
func internClones(recs []*Record) []int {
	rt := newRankTrace(0)
	for _, r := range recs {
		rt.appendOwned(r.Clone())
	}
	return rt.Events
}

// TestInternKeyAgreesWithKeyString: over the sample records and every record
// of the recorded panel traces, two records get the same intern id exactly
// when they share a KeyString, so interning by field hash builds the same
// tables as interning by the canonical key.
func TestInternKeyAgreesWithKeyString(t *testing.T) {
	recs := append(sampleRecords(), panelRecords(t)...)
	ids := internClones(recs)
	textOf := map[int]string{} // intern id -> KeyString
	idOf := map[string]int{}
	for i, r := range recs {
		id, text := ids[i], r.KeyString()
		if prev, ok := textOf[id]; ok && prev != text {
			t.Fatalf("intern id %d holds %q and %q", id, prev, text)
		}
		if prev, ok := idOf[text]; ok && prev != id {
			t.Fatalf("KeyString %q has intern ids %d and %d", text, prev, id)
		}
		textOf[id], idOf[text] = text, id
	}
	if len(textOf) < 100 {
		t.Fatalf("only %d distinct terminals: the panel did not record", len(textOf))
	}
}

// internOneHash interns recs into a table that files every record under
// one hash, so only the field comparison tells them apart.
func internOneHash(recs []*Record) []int {
	it := internTable{slots: make([]internSlot, minInternSlots)}
	var table []*Record
	ids := make([]int, len(recs))
	for i, r := range recs {
		id, at := it.find(0, r, table)
		if id < 0 {
			id = len(table)
			table = append(table, r)
			it.insert(at, 0, id)
		}
		ids[i] = id
	}
	return ids
}

// TestInternTellsEveryFieldApart perturbs each field of a record in turn,
// found by reflection so a field added later is covered too: each variant
// renders its own KeyString and interns to its own id, both by field hash
// and under one shared hash, so the field comparison skips no field.
func TestInternTellsEveryFieldApart(t *testing.T) {
	base := sampleRecords()[1] // a Waitall: both lists can grow from it
	recs := []*Record{base}
	rt := reflect.TypeOf(*base)
	for i := 0; i < rt.NumField(); i++ {
		r := base.Clone()
		f := reflect.ValueOf(r).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8: // the call: Waitall becomes Waitany
			f.SetUint(f.Uint() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Slice:
			f.Set(reflect.Append(f, reflect.ValueOf(1)))
		default:
			t.Fatalf("field %s has kind %s; teach the test to perturb it", rt.Field(i).Name, f.Kind())
		}
		recs = append(recs, r)
	}
	for _, ids := range [][]int{internClones(recs), internOneHash(recs)} {
		seen := map[int]string{}
		for i, id := range ids {
			if prev, ok := seen[id]; ok {
				t.Fatalf("record %d (%s) interned onto %s", i, recs[i].KeyString(), prev)
			}
			seen[id] = recs[i].KeyString()
		}
	}
}

// TestInternTableCollisions files distinct records under one hash, so each
// probe walks a chain of equal hashes: they keep distinct ids through the
// table's growth, and each is found again.
func TestInternTableCollisions(t *testing.T) {
	base := sampleRecords()
	recs := append([]*Record(nil), base...)
	for i := 0; i < 3*minInternSlots; i++ {
		r := base[i%len(base)].Clone()
		r.Tag = 1000 + i
		recs = append(recs, r)
	}
	ids := internOneHash(append(recs, recs...))
	for i, id := range ids {
		if want := i % len(recs); id != want {
			t.Fatalf("record %d interned as %d, want %d", i, id, want)
		}
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
	r := &Record{Func: mpicall.Func(num()), DestRel: num(), SrcRel: num(), Tag: num(), Bytes: num(),
		RecvTag: num(), Root: num(), Op: str(), CommPool: num(), NewCommPool: num(), ReqPool: num()}
	r.ReqPools, r.Counts = ints(), ints()
	r.Color, r.Key, r.ComputeCluster, r.FilePool, r.OffsetRel = num(), num(), num(), num(), num()
	r.FileName = str()
	return r
}

// FuzzInternKey: two records the fuzzer builds share an intern id only when
// they share a KeyString, and share one whenever their KeyStrings agree
// and their strings hold no KeyString separator (with separators, distinct
// fields can render one KeyString, and field interning keeps them apart
// as the merge's canonical key would not). Each record interns again to
// its own id.
func FuzzInternKey(f *testing.F) {
	f.Add([]byte("\x10MPI_Send\x06\x00"), []byte("\x10MPI_Send\x06\x00"))
	f.Add([]byte("\x02a|\x02\x04"), []byte("\x02a\x02|\x04"))
	f.Add([]byte("\x06MPI_Compute\x01\x02\x03"), []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ra, rb := fuzzRecord(a), fuzzRecord(b)
		ids := internClones([]*Record{ra, rb, ra, rb})
		ka, kb := ra.KeyString(), rb.KeyString()
		if ids[0] == ids[1] && ka != kb {
			t.Fatalf("one intern id, different KeyStrings %q and %q", ka, kb)
		}
		plain := func(r *Record) bool { return !strings.Contains(r.Op+r.FileName, "|") }
		if ka == kb && plain(ra) && plain(rb) && ids[0] != ids[1] {
			t.Fatalf("KeyString %q has intern ids %d and %d", ka, ids[0], ids[1])
		}
		if ids[2] != ids[0] || ids[3] != ids[1] {
			t.Fatalf("re-interning gave ids %v", ids)
		}
	})
}
