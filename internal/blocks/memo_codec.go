// Memo snapshot codec: the post-search checkpoint persists solved QP
// searches so a synthesis resumed after a crash re-runs code generation
// with every cluster's solve answered from cache. Entries are pure
// functions of their keys (see the package comment), so importing a
// snapshot can never change a result — only skip recomputing it — which is
// what keeps checkpoint/restart byte-identical.
package blocks

import (
	"fmt"

	"siesta/internal/trace"
)

// memoSnapshotMagic versions the snapshot encoding; a checkpoint written
// by an incompatible build fails to import and the caller recomputes.
const memoSnapshotMagic = "SIESTA-MEMO1"

// Export snapshots the memo's successfully solved entries in the shared
// compact binary format, least recently used first (so importing into a
// bounded memo evicts in the same order the source would have). Errored
// entries are skipped: re-deriving an error is cheap and keeps snapshots
// free of stale failure modes. So are entries whose solve has not landed.
func (m *Memo) Export() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	var entries []*memoEntry
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*memoEntry); e.state == entrySolved && e.err == nil {
			entries = append(entries, e)
		}
	}
	var e trace.Enc
	e.Str(memoSnapshotMagic)
	e.Int(len(entries))
	for _, ent := range entries {
		e.Str(string(ent.key.bm[:]))
		for _, t := range ent.key.target {
			e.Uvarint(t)
		}
		for _, c := range ent.combo.Counts {
			e.Varint(c)
		}
	}
	return e.Bytes()
}

// Import merges a snapshot produced by Export into the memo, skipping keys
// already present, and reports how many entries were added. A malformed
// snapshot returns an error with nothing guaranteed about partial
// insertion — safe either way, since entries are pure.
func (m *Memo) Import(data []byte) (int, error) {
	d := trace.NewDec(data)
	magic, err := d.Str()
	if err != nil || magic != memoSnapshotMagic {
		return 0, fmt.Errorf("blocks: bad memo snapshot magic %q: %v", magic, err)
	}
	n, err := d.Int()
	if err != nil {
		return 0, err
	}
	if n < 0 || n > d.Remaining() {
		return 0, fmt.Errorf("blocks: memo snapshot count %d exceeds remaining input %d", n, d.Remaining())
	}
	added := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		var key memoKey
		bm, err := d.Str()
		if err != nil {
			return added, fmt.Errorf("blocks: memo snapshot entry %d: %w", i, err)
		}
		if len(bm) != len(key.bm) {
			return added, fmt.Errorf("blocks: memo snapshot entry %d: B-hash is %d bytes", i, len(bm))
		}
		copy(key.bm[:], bm)
		for j := range key.target {
			if key.target[j], err = d.Uvarint(); err != nil {
				return added, fmt.Errorf("blocks: memo snapshot entry %d: %w", i, err)
			}
		}
		var combo Combination
		for j := range combo.Counts {
			if combo.Counts[j], err = d.Varint(); err != nil {
				return added, fmt.Errorf("blocks: memo snapshot entry %d: %w", i, err)
			}
		}
		if _, ok := m.byKey[key]; ok {
			continue
		}
		m.byKey[key] = m.lru.PushFront(&memoEntry{key: key, combo: combo})
		m.evict()
		added++
	}
	return added, nil
}
