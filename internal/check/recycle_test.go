package check_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"siesta/internal/check"
	"siesta/internal/merge"
	"siesta/internal/proxy"
	"siesta/internal/statics"
)

// TestMachineRecyclePoison runs the corpora with every object the machine
// releases poisoned, so a message, receive, request or slot that is read
// after its release panics or changes a verdict: the hand-built negative
// and clean programs keep their exact diagnostics, every built-in app and
// the random programs stay clean, and 20 more random programs keep their
// statics reports (which read the hook stream) byte for byte.
func TestMachineRecyclePoison(t *testing.T) {
	var progs []*merge.Program
	var want [][]byte
	for seed := int64(21); seed <= 40; seed++ {
		p := traceAndMerge(t, proxy.RandomProgram(seed, 12), 4+int(seed%3)*2)
		progs, want = append(progs, p), append(want, analyzeJSON(t, p))
	}

	var mu sync.Mutex
	released := map[string]int{}
	restore := check.PoisonReleased(func(kind string) {
		mu.Lock()
		released[kind]++
		mu.Unlock()
	})
	defer restore()

	for _, c := range check.HandBuiltCorpus {
		t.Run("handbuilt/"+c.Name, c.Run)
	}
	t.Run("apps", TestBuiltinAppsVerifyClean)
	t.Run("random", TestRandomProgramsVerifyClean)
	for i, p := range progs {
		t.Run(fmt.Sprintf("analyze/%d", 21+i), func(t *testing.T) {
			if got := analyzeJSON(t, p); !bytes.Equal(got, want[i]) {
				t.Errorf("statics report changed under poisoning:\n%s\nwant\n%s", got, want[i])
			}
		})
	}
	for _, kind := range []string{"vmsg", "vrecv", "vreq", "vslot"} {
		if released[kind] == 0 {
			t.Errorf("no %s was released, so none was poisoned", kind)
		}
	}
	t.Logf("released: %v", released)
}

func analyzeJSON(t *testing.T, p *merge.Program) []byte {
	t.Helper()
	rep, err := statics.Analyze(p, nil, statics.Options{ExactBytes: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
