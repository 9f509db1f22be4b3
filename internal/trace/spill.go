package trace

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// SpillConfig bounds the memory a streaming ingest terminal table may
// hold resident. It is a throughput/footprint knob only: spilling never
// changes which records a table holds or their ids, so it participates
// in no fingerprint or cache key.
type SpillConfig struct {
	// HighWater is the resident record budget in encoded bytes; once the
	// resident prefix exceeds it, every further record is encoded and
	// appended to a temp file instead of staying in memory. 0 disables
	// spilling.
	HighWater int
	// Dir is where spill files are created; "" selects os.TempDir().
	Dir string
}

// SpillStats reports a table's footprint split.
type SpillStats struct {
	Records       int   `json:"records"`
	Spilled       int   `json:"spilled"`
	ResidentBytes int64 `json:"resident_bytes"`
	SpilledBytes  int64 `json:"spilled_bytes"`
}

// SpillFile is one ingest session's spill store: a single temp file that
// every rank table of the session appends to. It is created on the first
// write and removed by Close. Tables write concurrently (each under its
// own rank's lock), so the tail offset is reserved and written under the
// file's mutex. Errors are sticky: a failed create or write fails every
// later write and read.
type SpillFile struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	tail int64
	err  error
}

// SpillFilePattern names spill files: os.CreateTemp's pattern, and a
// filepath.Glob pattern matching every spill file in a directory.
const SpillFilePattern = "siesta-spill-*.bin"

var errSpillClosed = errors.New("trace: spill file closed")

// NewSpillFile returns a session spill store that creates its file in dir
// ("" selects os.TempDir()) on first use.
func NewSpillFile(dir string) *SpillFile { return &SpillFile{dir: dir} }

// write appends p to the file, creating it on first use, and returns the
// offset p landed at.
func (s *SpillFile) write(p []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, s.err
	}
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, SpillFilePattern)
		if err != nil {
			s.err = fmt.Errorf("trace: spill: %w", err)
			return 0, s.err
		}
		s.f = f
	}
	off := s.tail
	if _, err := s.f.WriteAt(p, off); err != nil {
		s.err = fmt.Errorf("trace: spill write: %w", err)
		return 0, s.err
	}
	s.tail += int64(len(p))
	return off, nil
}

// readAt fills p from the file at off.
func (s *SpillFile) readAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if _, err := s.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("trace: spill read: %w", err)
	}
	return nil
}

// Close removes the file, if one was created, and fails every later write
// or read. Idempotent; the session calls it on commit and abort alike, so
// no temp file outlives its session.
func (s *SpillFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = errSpillClosed
	}
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	return errors.Join(f.Close(), os.Remove(f.Name()))
}

// spillLoc locates one spilled record within its table's spill stream.
type spillLoc struct {
	off int64
	len int32
}

// spillExt is one Flush's run of the table's spill stream: n bytes at off
// in the session file.
type spillExt struct {
	off int64
	n   int
}

// SpillTable is a terminal intern table with a bounded resident prefix:
// records intern by canonical key exactly like RankTrace's table (same
// ids, same order), but past the configured high-water mark the record
// bodies live in the session's spill file rather than the heap. Keys and
// the key index always stay resident — they are what interning probes —
// so the high-water mark bounds the dominant cost, the decoded Record
// bodies. Not safe for concurrent use; the ingestor serializes access per
// rank.
//
// Spilled records are encoded into the table's own spill stream: Intern
// appends to a pending buffer and Flush writes it to the session file as
// one extent, so a rank pays one write per Flush, not one per record.
//
// Ownership rule: the table owns every interned record until Take,
// which hands the full table (resident prefix + records re-decoded from
// disk, keys and index) to the caller and forgets it. The file belongs to
// the session (see SpillFile), which removes it on commit and abort.
type SpillTable struct {
	highWater int
	file      *SpillFile
	n         int // interned records; Stats reads it, Take leaves it
	keys      []string
	keyIndex  map[string]int

	resident      []*Record
	residentBytes int64

	locs     []spillLoc // offsets into the table's spill stream
	woff     int64      // spill stream length
	pend     Enc        // the stream's unflushed tail
	exts     []spillExt // the flushed stream, in order
	spilling bool
	err      error
}

// NewSpillTable returns an empty table that spills past highWater encoded
// bytes into file. A highWater of 0 disables spilling, and such a table
// never touches file (which may then be nil).
func NewSpillTable(highWater int, file *SpillFile) *SpillTable {
	return &SpillTable{highWater: highWater, file: file, keyIndex: make(map[string]int)}
}

// Stats reports the resident/spilled split.
func (t *SpillTable) Stats() SpillStats {
	return SpillStats{
		Records:       t.n,
		Spilled:       len(t.locs),
		ResidentBytes: t.residentBytes,
		SpilledBytes:  t.woff,
	}
}

// Intern returns the id for the record with the given canonical key,
// taking ownership of r and storing it (resident or spilled) if the key
// is new. Identical to RankTrace interning: first arrival wins, ids are
// dense in arrival order. key may be the caller's scratch buffer: the
// probe allocates nothing, and only a new key is copied into a string.
func (t *SpillTable) Intern(r *Record, key []byte) int {
	if id, ok := t.keyIndex[string(key)]; ok {
		return id
	}
	id := t.n
	t.n++
	k := string(key)
	t.keys = append(t.keys, k)
	t.keyIndex[k] = id

	sz := recordSize(r)
	// The spill switch is monotone: once tripped, every new record goes to
	// disk, so resident records are exactly ids [0, len(resident)).
	if !t.spilling && t.highWater > 0 && t.residentBytes+int64(sz) > int64(t.highWater) {
		t.spilling = true
	}
	if !t.spilling {
		t.resident = append(t.resident, r)
		t.residentBytes += int64(sz)
		return id
	}
	// The record's id slot is reserved even after an I/O failure, so the
	// table's id sequence never depends on I/O health.
	t.locs = append(t.locs, spillLoc{off: t.woff, len: int32(sz)})
	if t.err == nil {
		EncodeRecord(&t.pend, r)
		t.woff += int64(sz)
	}
	return id
}

// Flush writes the records spilled since the last Flush to the session
// file as one extent. A failure is sticky: every later Flush and Take
// returns it. Interning keeps accepting records after an error (ids stay
// consistent), but the error must surface before anyone trusts Take.
func (t *SpillTable) Flush() error {
	if t.err != nil || t.pend.Len() == 0 {
		return t.err
	}
	off, err := t.file.write(t.pend.Bytes())
	if err != nil {
		t.err = err
		return err
	}
	t.exts = append(t.exts, spillExt{off: off, n: t.pend.Len()})
	t.pend.buf.Reset()
	return nil
}

// Take hands the table over: the records in id order, re-decoding the
// spilled suffix from disk (one read per extent), their keys, and the
// key→id index. It flushes first. The table forgets all three, so the
// caller owns them and whatever it drops becomes garbage; Stats keeps
// reporting the totals, and Intern must not be called again. The spilled
// window is transient: it exists only for the duration of the merge that
// consumes it (DESIGN.md §15 documents the ownership rule).
func (t *SpillTable) Take() (records []*Record, keys []string, index map[string]int, err error) {
	if err := t.Flush(); err != nil {
		return nil, nil, nil, err
	}
	// A drained bytes.Buffer keeps its capacity, and a finished session
	// can outlive its commit; release the pending buffer with the table.
	t.pend = Enc{}
	records, keys, index = make([]*Record, t.n), t.keys, t.keyIndex
	copy(records, t.resident)
	base := len(t.resident)
	t.resident, t.keys, t.keyIndex = nil, nil, nil
	if len(t.locs) == 0 {
		return records, keys, index, nil
	}
	buf := GetBytes(int(t.woff))
	defer buf.Unref()
	pos := 0
	for _, x := range t.exts {
		if err := t.file.readAt(buf.S[pos:pos+x.n], x.off); err != nil {
			return nil, nil, nil, err
		}
		pos += x.n
	}
	t.exts = nil
	// One slab for all spilled records, mirroring Decode's per-rank slab.
	recs := make([]Record, len(t.locs))
	for i, loc := range t.locs {
		d := NewDec(buf.S[loc.off : loc.off+int64(loc.len)])
		if err := DecodeRecord(d, &recs[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("trace: spill decode record %d: %w", base+i, err)
		}
		records[base+i] = &recs[i]
	}
	return records, keys, index, nil
}
