package trace

import (
	"bytes"
	"errors"
	"testing"

	"siesta/internal/apps"
	"siesta/internal/mpi"
	"siesta/internal/mpicall"
)

// TestDecodeRefusesUnknownCall: a recorded CG/8 trace whose MPI_Allreduce
// terminals are renamed to MPI_Win_lock, a call outside the table, is
// refused at decode with an error naming the call, instead of reaching the
// later stages as a call none of them implements.
func TestDecodeRefusesUnknownCall(t *testing.T) {
	spec, err := apps.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	fn, err := spec.Build(apps.Params{Ranks: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(8, Config{})
	if _, err := mpi.NewWorld(mpi.Config{Size: 8, Seed: 3, Interceptor: rec}).Run(fn); err != nil {
		t.Fatal(err)
	}
	enc := rec.Trace("A", "openmpi").Encode()
	if _, err := Decode(enc); err != nil {
		t.Fatalf("recorded trace does not decode: %v", err)
	}
	// Names are length-prefixed: the rename rewrites the one-byte length too.
	from, to := []byte("\x0dMPI_Allreduce"), []byte("\x0cMPI_Win_lock")
	if bytes.Count(enc, from) == 0 {
		t.Fatal("CG trace records no MPI_Allreduce")
	}
	_, err = Decode(bytes.ReplaceAll(enc, from, to))
	var unknown *mpicall.UnknownError
	if !errors.As(err, &unknown) || unknown.Name != "MPI_Win_lock" {
		t.Fatalf("Decode of a trace naming MPI_Win_lock: got %v, want *mpicall.UnknownError", err)
	}
}
