package sequitur

// Streaming support. Sequitur is naturally online — Append consumes one
// terminal at a time and every structural edit it performs depends only
// on the equality pattern of the tokens seen so far — so a Builder fed
// from a network stream is indistinguishable from one fed from a decoded
// trace. The streaming ingest path (internal/merge's RankIngestor) leans
// on the first of two contracts this file pins:
//
//  1. Feed equivalence: Append(a); Append(b); … over any chunking of the
//     same token sequence yields the same builder state. This is trivially
//     true (Append takes one token), but the tests exercise it through the
//     chunked feed helpers the ingest path uses.
//
//  2. Snapshot purity: exporting the grammar mid-stream must not perturb
//     inference. Snapshot (like Grammar, which it aliases for emphasis)
//     only reads the rule lists, so appending after a snapshot continues
//     exactly as if the snapshot had never been taken.

// Snapshot exports the grammar over the tokens appended so far, without
// disturbing the builder: appending more tokens afterwards continues the
// same inference, and a later Snapshot over the full input is identical
// to a never-snapshotted build's Grammar.
func (b *Builder) Snapshot() *Grammar { return b.Grammar() }
