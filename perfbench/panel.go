package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"

	"siesta/internal/apps"
)

// panelRanks are the rank counts the panel draws from, as each app accepts.
var panelRanks = []int{16, 27, 64}

// panelEntry is one fixed input of the benchmark: a built-in app at a rank
// count, simulated with a fixed seed.
type panelEntry struct {
	App   string
	Ranks int
	Seed  uint64 // simulation seed of the recorded or synthesized run
}

func (e panelEntry) String() string { return e.App + "/" + strconv.Itoa(e.Ranks) }

// panel lists every (app, ranks) combination over all built-in apps, with
// ranks ∈ panelRanks as the app accepts, in registry order. The simulation
// seed of each entry is a hash of the combination, not of --seed: the
// fidelity and size metrics are deterministic functions of these inputs,
// so fixing them keeps seed noise out of metrics whose job is to flag a
// change in the synthesized output. --seed decides how the panel is dealt
// to the clients and the seeds of service requests.
func panel() []panelEntry {
	var out []panelEntry
	for _, s := range apps.All() {
		for _, n := range panelRanks {
			if !s.ValidRanks(n) {
				continue
			}
			h := fnv.New64a()
			h.Write([]byte(s.Name + "/" + strconv.Itoa(n)))
			out = append(out, panelEntry{App: s.Name, Ranks: n, Seed: h.Sum64()%1_000_000 + 1})
		}
	}
	return out
}

// request is one job a client issues.
type request struct {
	Index    int    // position in the client's sequence
	Entry    int    // panel index of the input
	Seed     uint64 // service synthesis seed; unique per fresh request
	Analyze  bool   // serve-oneshot: ask for the statics report
	RepeatOf int    // index of the earlier request repeated verbatim, −1 if fresh
}

// repeatEvery makes every repeatEvery-th serve-oneshot request a repeat.
const repeatEvery = 4

// sequence is one client's deterministic, lazily generated request
// sequence: a pure function of (workload, seed, client, index). The panel
// is dealt in passes, each pass a seeded permutation of all entries, so
// any prefix of the sequence holds every entry a whole number of times
// plus one partial pass.
type sequence struct {
	workload string
	seed     uint64
	client   int
	n        int // panel size

	pass int
	perm []int
}

func newSequence(workload string, seed uint64, client, n int) *sequence {
	return &sequence{workload: workload, seed: seed, client: client, n: n, pass: -1}
}

// mix is splitmix64 over the combined words: a cheap, well-spread
// derivation of independent sub-seeds.
func mix(words ...uint64) uint64 {
	var x uint64
	for _, w := range words {
		x ^= w
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// fresh returns the f-th fresh request's panel entry and service seed.
func (q *sequence) fresh(f int) (entry int, seed uint64) {
	if p := f / q.n; p != q.pass {
		rng := rand.New(rand.NewSource(int64(mix(q.seed, uint64(q.client), uint64(p)) >> 1)))
		q.perm, q.pass = rng.Perm(q.n), p
	}
	// Seeds are unique within a run (client < 16, f < 2^20) and differ
	// between --seed values, so no two fresh requests share a cache key.
	return q.perm[f%q.n], q.seed<<24 | uint64(q.client)<<20 | uint64(f+1)
}

// passLen is the number of requests after which the sequence has dealt
// every panel entry the same number of times: one pass, or on
// serve-oneshot repeatEvery passes' worth of requests (repeatEvery−1
// passes of fresh requests plus their repeats).
func (q *sequence) passLen() int {
	if q.workload == "serve-oneshot" {
		return repeatEvery * q.n
	}
	return q.n
}

// at returns the i-th request. On serve-oneshot every repeatEvery-th
// request repeats one of the three fresh requests just before it.
func (q *sequence) at(i int) request {
	if q.workload == "serve-oneshot" {
		if i%repeatEvery == repeatEvery-1 {
			r := i - 1 - int(mix(q.seed, uint64(q.client), uint64(i))%uint64(repeatEvery-1))
			req := q.at(r)
			req.Index, req.Analyze, req.RepeatOf = i, false, r
			return req
		}
		f := i - i/repeatEvery
		e, s := q.fresh(f)
		return request{Index: i, Entry: e, Seed: s, Analyze: true, RepeatOf: -1}
	}
	e, s := q.fresh(i)
	return request{Index: i, Entry: e, Seed: s, RepeatOf: -1}
}
