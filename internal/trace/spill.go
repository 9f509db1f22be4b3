package trace

import (
	"fmt"
	"os"
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

// spillLoc locates one spilled record within the spill file.
type spillLoc struct {
	off int64
	len int32
}

// SpillTable is a terminal intern table with a bounded resident prefix:
// records intern by canonical key exactly like RankTrace's table (same
// ids, same order), but past the configured high-water mark the record
// bodies live in an unlinked-on-Close temp file rather than the heap.
// Keys and the key index always stay resident — they are what interning
// probes — so the high-water mark bounds the dominant cost, the decoded
// Record bodies. Not safe for concurrent use; the ingestor serializes
// access per rank.
//
// Ownership rule: the table owns every interned record until Take,
// which hands the full table (resident prefix + records re-decoded from
// disk, keys and index) to the caller and forgets it; Close removes the
// file and must always be called, on success and abort alike.
type SpillTable struct {
	cfg      SpillConfig
	n        int // interned records; Stats reads it, Take leaves it
	keys     []string
	keyIndex map[string]int

	resident      []*Record
	residentBytes int64

	f        *os.File
	path     string
	locs     []spillLoc
	woff     int64
	spilling bool
	err      error
}

// NewSpillTable returns an empty table.
func NewSpillTable(cfg SpillConfig) *SpillTable {
	return &SpillTable{cfg: cfg, keyIndex: make(map[string]int)}
}

// Err reports the table's sticky I/O error, if any. Interning keeps
// accepting records after an error (ids stay consistent) but the error
// must surface before anyone trusts Take.
func (t *SpillTable) Err() error { return t.err }

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
// dense in arrival order.
func (t *SpillTable) Intern(r *Record, key string) int {
	if id, ok := t.keyIndex[key]; ok {
		return id
	}
	id := t.n
	t.n++
	t.keys = append(t.keys, key)
	t.keyIndex[key] = id

	sz := recordSize(r)
	// The spill switch is monotone: once tripped, every new record goes to
	// disk, so resident records are exactly ids [0, len(resident)).
	if !t.spilling && t.cfg.HighWater > 0 && t.residentBytes+int64(sz) > int64(t.cfg.HighWater) {
		t.spilling = true
	}
	if !t.spilling {
		t.resident = append(t.resident, r)
		t.residentBytes += int64(sz)
		return id
	}
	t.spill(r, sz)
	return id
}

// spill encodes r and appends it to the spill file, creating the file
// lazily. I/O failures stick in t.err; the record's id slot is still
// reserved so the table's id sequence never depends on I/O health.
func (t *SpillTable) spill(r *Record, sz int) {
	t.locs = append(t.locs, spillLoc{off: t.woff, len: int32(sz)})
	if t.err != nil {
		return
	}
	if t.f == nil {
		f, err := os.CreateTemp(t.cfg.Dir, "siesta-spill-*.bin")
		if err != nil {
			t.err = fmt.Errorf("trace: spill: %w", err)
			return
		}
		t.f = f
		t.path = f.Name()
	}
	var e Enc
	e.Grow(sz)
	encodeRecord(&e, r)
	if _, err := t.f.WriteAt(e.Bytes(), t.woff); err != nil {
		t.err = fmt.Errorf("trace: spill write: %w", err)
		return
	}
	t.woff += int64(sz)
}

// Take hands the table over: the records in id order, re-decoding the
// spilled suffix from disk in one sequential read, their keys, and the
// key→id index. The table forgets all three, so the caller owns them and
// whatever it drops becomes garbage; Stats keeps reporting the totals,
// and Intern must not be called again. The spilled window is transient:
// it exists only for the duration of the merge that consumes it
// (DESIGN.md §15 documents the ownership rule).
func (t *SpillTable) Take() (records []*Record, keys []string, index map[string]int, err error) {
	if t.err != nil {
		return nil, nil, nil, t.err
	}
	records, keys, index = make([]*Record, t.n), t.keys, t.keyIndex
	copy(records, t.resident)
	base := len(t.resident)
	t.resident, t.keys, t.keyIndex = nil, nil, nil
	if len(t.locs) == 0 {
		return records, keys, index, nil
	}
	buf := GetBytes(int(t.woff))
	defer buf.Unref()
	if _, err := t.f.ReadAt(buf.S, 0); err != nil {
		return nil, nil, nil, fmt.Errorf("trace: spill read: %w", err)
	}
	// One slab for all spilled records, mirroring Decode's per-rank slab.
	recs := make([]Record, len(t.locs))
	for i, loc := range t.locs {
		d := NewDec(buf.S[loc.off : loc.off+int64(loc.len)])
		if err := decodeRecord(d, &recs[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("trace: spill decode record %d: %w", base+i, err)
		}
		records[base+i] = &recs[i]
	}
	return records, keys, index, nil
}

// Close removes the spill file. Idempotent; always call it — commit and
// abort paths alike — so no temp files leak.
func (t *SpillTable) Close() error {
	if t.f == nil {
		return nil
	}
	f, path := t.f, t.path
	t.f, t.path = nil, ""
	cerr := f.Close()
	rerr := os.Remove(path)
	if cerr != nil {
		return cerr
	}
	return rerr
}
