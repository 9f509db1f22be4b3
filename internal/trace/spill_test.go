package trace

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// spillRecord returns a distinct record per i, with the variable-length
// fields populated so encoded sizes differ.
func spillRecord(i int) *Record {
	return &Record{
		Func: "MPI_Isend", DestRel: i % 7, SrcRel: NoRank, Tag: i, Bytes: 8 * i,
		RecvTag: -1, Root: NoRank, CommPool: i % 3, NewCommPool: -1, ReqPool: i % 5,
		ReqPools: []int{i, i + 1}, Counts: make([]int, i%4), FileName: "f",
	}
}

func spillFiles(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, SpillFilePattern))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// internAll interns n distinct records (each but the first offered twice,
// the repeat at a flush boundary) into tab, flushing every flushEvery
// interns, and returns the records as first offered. It reports failures
// as errors so concurrent callers can use it.
func internAll(tab *SpillTable, n, flushEvery int) ([]*Record, error) {
	want := make([]*Record, n)
	for i := range want {
		want[i] = spillRecord(i)
		r := want[i].Clone()
		if id := tab.Intern(r, r.AppendKey(nil)); id != i {
			return nil, fmt.Errorf("record %d interned as id %d", i, id)
		}
		if i > 0 && i%flushEvery == 0 {
			dup := want[i-1].Clone()
			if id := tab.Intern(dup, dup.AppendKey(nil)); id != i-1 {
				return nil, fmt.Errorf("repeat of record %d interned as id %d", i-1, id)
			}
			if err := tab.Flush(); err != nil {
				return nil, err
			}
		}
	}
	return want, nil
}

// mustInternAll is internAll on the test goroutine.
func mustInternAll(t *testing.T, tab *SpillTable, n, flushEvery int) []*Record {
	t.Helper()
	want, err := internAll(tab, n, flushEvery)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// checkTake asserts Take hands back want in id order, each record encoding
// exactly as offered, with matching keys and index.
func checkTake(t *testing.T, tab *SpillTable, want []*Record) {
	t.Helper()
	records, keys, index, err := tab.Take()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(want) || len(keys) != len(want) || len(index) != len(want) {
		t.Fatalf("Take: %d records, %d keys, %d index entries; want %d each",
			len(records), len(keys), len(index), len(want))
	}
	for i, r := range records {
		var got, exp Enc
		encodeRecord(&got, r)
		encodeRecord(&exp, want[i])
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want[i])
		}
		if k := want[i].KeyString(); keys[i] != k || index[k] != i {
			t.Fatalf("record %d: key %q index %d", i, keys[i], index[k])
		}
	}
}

// A resident prefix plus a spilled tail written across several flushes
// reads back exactly, ids unchanged.
func TestSpillTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := NewSpillFile(dir)
	defer f.Close()
	tab := NewSpillTable(3*recordSize(spillRecord(2)), f)
	want := mustInternAll(t, tab, 40, 7)
	st := tab.Stats()
	if st.Spilled == 0 || st.Spilled == st.Records {
		t.Fatalf("want a resident prefix and a spilled tail: %+v", st)
	}
	if len(tab.exts) < 2 {
		t.Fatalf("spilled tail written in %d extents, want several", len(tab.exts))
	}
	checkTake(t, tab, want)
	if n := spillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files, want 1", n)
	}
}

// Tables of one session share its file: concurrent interns and flushes
// from different tables land in disjoint extents.
func TestSpillTablesShareOneFile(t *testing.T) {
	dir := t.TempDir()
	f := NewSpillFile(dir)
	tabs := []*SpillTable{NewSpillTable(1, f), NewSpillTable(1, f), NewSpillTable(1, f)}
	wants := make([][]*Record, len(tabs))
	errs := make([]error, len(tabs))
	var wg sync.WaitGroup
	for k, tab := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wants[k], errs[k] = internAll(tab, 200, 3+k)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := spillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files for one session, want 1", n)
	}
	for k, tab := range tabs {
		checkTake(t, tab, wants[k])
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files after Close", n)
	}
}

// A table under its high-water mark, or with spilling off, never creates
// the file.
func TestSpillNoFileWhenNothingSpills(t *testing.T) {
	dir := t.TempDir()
	f := NewSpillFile(dir)
	defer f.Close()
	for _, tab := range []*SpillTable{NewSpillTable(1<<20, f), NewSpillTable(0, nil)} {
		want := mustInternAll(t, tab, 30, 4)
		if st := tab.Stats(); st.Spilled != 0 || st.SpilledBytes != 0 {
			t.Fatalf("nothing should spill: %+v", st)
		}
		checkTake(t, tab, want)
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("%d spill files created without spilling", n)
	}
}

// A create failure sticks: Flush reports it, every later Flush and Take
// repeat it, and ids keep their dense order.
func TestSpillCreateFailureSticks(t *testing.T) {
	f := NewSpillFile(filepath.Join(t.TempDir(), "missing"))
	defer f.Close()
	tab := NewSpillTable(1, f)
	for i := 0; i < 5; i++ {
		r := spillRecord(i)
		if id := tab.Intern(r, r.AppendKey(nil)); id != i {
			t.Fatalf("record %d interned as id %d", i, id)
		}
	}
	err := tab.Flush()
	if err == nil {
		t.Fatal("spill into a nonexistent dir should fail Flush")
	}
	r := spillRecord(5)
	if id := tab.Intern(r, r.AppendKey(nil)); id != 5 {
		t.Fatalf("after the failure, record 5 interned as id %d", id)
	}
	if err2 := tab.Flush(); !errors.Is(err2, err) {
		t.Fatalf("second Flush: %v, want the sticky %v", err2, err)
	}
	if _, _, _, err2 := tab.Take(); !errors.Is(err2, err) {
		t.Fatalf("Take: %v, want the sticky %v", err2, err)
	}
	// The file's own failure sticks for every table sharing it.
	other := NewSpillTable(1, f)
	r = spillRecord(0)
	other.Intern(r, r.AppendKey(nil))
	if other.Flush() == nil {
		t.Fatal("a second table wrote to a failed spill file")
	}
}

// Close removes the file, is idempotent, and refuses later writes rather
// than recreating a file nobody would remove.
func TestSpillFileCloseRemoves(t *testing.T) {
	dir := t.TempDir()
	f := NewSpillFile(dir)
	if err := f.Close(); err != nil {
		t.Fatalf("Close before any spill: %v", err)
	}
	f = NewSpillFile(dir)
	tab := NewSpillTable(1, f)
	mustInternAll(t, tab, 10, 3)
	if n := spillFiles(t, dir); n != 1 {
		t.Fatalf("%d spill files, want 1", n)
	}
	for i := 0; i < 2; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
		if n := spillFiles(t, dir); n != 0 {
			t.Fatalf("%d spill files after Close #%d", n, i+1)
		}
	}
	r := spillRecord(10)
	tab.Intern(r, r.AppendKey(nil))
	if tab.Flush() == nil {
		t.Fatal("Flush after Close should fail")
	}
	if n := spillFiles(t, dir); n != 0 {
		t.Fatalf("a write after Close recreated %d spill files", n)
	}
}

// Stats counts distinct records, splits their encoded bytes between the
// resident prefix and the spilled tail, counts pending spilled records as
// spilled before their Flush, and keeps its totals across Take.
func TestSpillTableStats(t *testing.T) {
	f := NewSpillFile(t.TempDir())
	defer f.Close()
	const resident = 4
	var want SpillStats
	for i := 0; i < resident; i++ {
		want.ResidentBytes += int64(recordSize(spillRecord(i)))
	}
	tab := NewSpillTable(int(want.ResidentBytes), f)
	for i := 0; i < 20; i++ {
		r := spillRecord(i)
		tab.Intern(r, r.AppendKey(nil))
		dup := spillRecord(i)
		tab.Intern(dup, dup.AppendKey(nil))
		if i >= resident {
			want.Spilled++
			want.SpilledBytes += int64(recordSize(spillRecord(i)))
		}
	}
	want.Records = 20
	if got := tab.Stats(); got != want {
		t.Fatalf("Stats before Flush = %+v, want %+v", got, want)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tab.Stats(); got != want {
		t.Fatalf("Stats after Flush = %+v, want %+v", got, want)
	}
	if _, _, _, err := tab.Take(); err != nil {
		t.Fatal(err)
	}
	if got := tab.Stats(); got != want {
		t.Fatalf("Stats after Take = %+v, want %+v", got, want)
	}
}
