package core

import (
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"
)

// The release behaviour of every paradigm, pinned the way the repo pins
// numerics: one 64-bit hash per paradigm × membership cell, recorded by
// running this file on the commit before SSP and ASP became the DSSP engine
// at r = 0 (e9a61ad). The file uses exported constructors and the Policy
// interface only, so it compiles unchanged on either side of that commit;
// `go test -run TestParadigmEquivalenceTable -v ./internal/core/` prints the
// table it computes.
//
// Each cell folds 2 000 seeded schedules into FNV-1a. A schedule has n in
// [2,6] workers and 300 steps; a worker pushes only when it is neither
// blocked nor departed (the protocol the parameter server enforces); with
// churn, one step in twenty is a join or a leave instead. Every step's
// event, Decision (Release in order) and Blocked() go into the hash, so two
// implementations agree on a cell only when they are sequence-identical on
// all 2 000 schedules.

const (
	equivalenceSeeds = 2000
	equivalenceSteps = 300
)

// equivalenceCells lists the pinned paradigms.
var equivalenceCells = []struct {
	name          string
	build         func(n int) Policy
	static, churn uint64
}{
	{"ASP", func(n int) Policy { return MustNewASP(n) }, 0xa04eb8e42daf2aad, 0xc110b452c779b081},
	{"SSP(0)", func(n int) Policy { return MustNewSSP(n, 0) }, 0x09db93b25ebb70bd, 0x119ab3f4fe01efc9},
	{"SSP(1)", func(n int) Policy { return MustNewSSP(n, 1) }, 0x05c38de10920237e, 0x5336e5d56e470ad9},
	{"SSP(3)", func(n int) Policy { return MustNewSSP(n, 3) }, 0xb704628aa102891e, 0xcbe8843ebdd55c66},
	{"SSP(15)", func(n int) Policy { return MustNewSSP(n, 15) }, 0x0b62da016279238b, 0xa8226a18a7adf338},
	{"BSP", func(n int) Policy { return MustNewBSP(n) }, 0x09db93b25ebb70bd, 0x119ab3f4fe01efc9},
	{"DSSP(3,12)", func(n int) Policy { return MustNewDSSP(n, 3, 12) }, 0xaab852a8b8dde3d6, 0x9ed0f871b66dcd48},
	{"DSSP(3,12) strict", func(n int) Policy {
		p := MustNewDSSP(n, 3, 12)
		p.EnforceUpperBound(true)
		return p
	}, 0x42dc58392dfb314f, 0x74b2395899bf5f5a},
}

// Step events, folded into the hash ahead of the worker id.
const (
	eventPush = iota + 1
	eventJoin
	eventLeave
	eventStuck
)

func TestParadigmEquivalenceTable(t *testing.T) {
	for _, cell := range equivalenceCells {
		for _, churn := range []bool{false, true} {
			mode, want := "static", cell.static
			if churn {
				mode, want = "churn", cell.churn
			}
			t.Run(cell.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				h := fnv.New64a()
				for seed := int64(0); seed < equivalenceSeeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					foldSchedule(h, cell.build(2+rng.Intn(5)), rng, churn)
				}
				got := h.Sum64()
				t.Logf("%#016x", got)
				if got != want {
					t.Errorf("release-sequence hash %#016x, recorded at the parent %#016x", got, want)
				}
			})
		}
	}
}

// foldSchedule drives p through one seeded schedule and folds every step
// into h.
func foldSchedule(h hash.Hash64, p Policy, rng *rand.Rand, churn bool) {
	n := p.NumWorkers()
	blocked := make([]bool, n)
	departed := make([]bool, n)
	now := time.Unix(0, 0)
	var buf []byte
	fold := func(vals ...int) {
		buf = buf[:0]
		for _, v := range vals {
			buf = append(buf, byte(v), byte(v>>8))
		}
		h.Write(buf)
	}
	for step := 0; step < equivalenceSteps; step++ {
		now = now.Add(time.Duration(1+rng.Intn(50)) * time.Millisecond)
		var eligible []WorkerID
		for w := 0; w < n; w++ {
			if !blocked[w] && !departed[w] {
				eligible = append(eligible, WorkerID(w))
			}
		}
		var dec Decision
		switch {
		case churn && (len(eligible) == 0 || rng.Intn(20) == 0):
			w := WorkerID(rng.Intn(n))
			if departed[w] {
				fold(eventJoin, int(w))
				dec = p.OnJoin(w, now)
				departed[w] = false
			} else {
				fold(eventLeave, int(w))
				dec = p.OnLeave(w, now)
				departed[w], blocked[w] = true, false
			}
		case len(eligible) == 0:
			// Every worker waits on a peer that will never push: a
			// protocol-respecting schedule ends here.
			fold(eventStuck)
			return
		default:
			w := eligible[rng.Intn(len(eligible))]
			fold(eventPush, int(w))
			dec = p.OnPush(w, now)
			blocked[w] = true
		}
		// The leading 0 is where the hashes were recorded with a drop flag
		// no pinned paradigm ever set; folding it keeps the pins unchanged.
		fold(0, len(dec.Release))
		for _, id := range dec.Release {
			fold(int(id))
			blocked[id] = false
		}
		waiting := p.Blocked()
		fold(len(waiting))
		for _, id := range waiting {
			fold(int(id))
		}
	}
}
