package codegen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"siesta/internal/blocks"
	"siesta/internal/qp"
)

// Whatever the worker count, a program's searches give the serial table
// and leave the memo with the serial loop's counts and snapshot.
func TestSearchWorkersMatchSerial(t *testing.T) {
	prog, _ := buildProgram(t)
	if len(prog.Clusters) < 2 {
		t.Fatalf("program has %d clusters; the test needs several", len(prog.Clusters))
	}
	var ref *Proxies
	var refSnap []byte
	for _, workers := range []int{0, 1, 3} {
		memo := blocks.NewMemo(0)
		px, err := StartSearch(prog, Options{SearchMemo: memo, Scale: 10}, workers).Wait()
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		hits, misses := memo.Stats()
		if hits+misses != int64(len(prog.Clusters)) {
			t.Errorf("%d workers: %d lookups for %d clusters", workers, hits+misses, len(prog.Clusters))
		}
		if ref == nil {
			ref, refSnap = px, memo.Export()
			continue
		}
		if !reflect.DeepEqual(px, ref) {
			t.Errorf("%d workers: table differs from the serial one", workers)
		}
		if !bytes.Equal(memo.Export(), refSnap) {
			t.Errorf("%d workers: memo snapshot differs from the serial one", workers)
		}
	}
}

// Stop before Wait solves nothing further and takes the unsolved misses
// back out of the memo; Stop after Wait changes nothing.
func TestSearchStop(t *testing.T) {
	prog, _ := buildProgram(t)
	memo := blocks.NewMemo(0)
	StartSearch(prog, Options{SearchMemo: memo}, 0).Stop()
	if n := memo.Len(); n != 0 {
		t.Errorf("stopped search left %d entries in the memo", n)
	}
	s := StartSearch(prog, Options{SearchMemo: memo}, 2)
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	n := memo.Len()
	s.Stop()
	if memo.Len() != n || n == 0 {
		t.Errorf("Stop after Wait: memo went from %d to %d entries", n, memo.Len())
	}
}

// Every cluster's search fails against a malformed B matrix; the error
// names cluster 0 however the solves were spread.
func TestSearchReportsLowestClusterError(t *testing.T) {
	prog, _ := buildProgram(t)
	for _, workers := range []int{0, 3} {
		_, err := StartSearch(prog, Options{SearchMemo: blocks.NewMemo(0), BMatrix: qp.NewMatrix(2, 2)}, workers).Wait()
		if err == nil || !strings.HasPrefix(err.Error(), "codegen: cluster 0: ") {
			t.Errorf("%d workers: error %v, want cluster 0's", workers, err)
		}
	}
}
