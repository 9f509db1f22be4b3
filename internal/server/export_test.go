package server

import (
	"reflect"
	"unsafe"

	"siesta/internal/merge"
	"siesta/internal/trace"
)

// ingestLeaf returns rank 0's chunk decoder inside a merge.Ingest: an
// object that only the Ingest references, so a finalizer on it runs once
// the Ingest is unreachable. (The Ingest and its per-rank ingestors point
// at each other, and a finalizer on a block in a cycle never runs.)
func ingestLeaf(in *merge.Ingest) *trace.ChunkDec {
	f := reflect.ValueOf(in.Rank(0)).Elem().FieldByName("dec")
	return *(**trace.ChunkDec)(unsafe.Pointer(f.UnsafeAddr()))
}
