package rwa_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/obs"
	"github.com/arrow-te/arrow/internal/optical"
	"github.com/arrow-te/arrow/internal/rwa"
	"github.com/arrow-te/arrow/internal/ticket"
	"github.com/arrow-te/arrow/internal/topo"
)

func b4(t testing.TB) *optical.Network {
	tp, err := topo.B4(6)
	if err != nil {
		t.Fatal(err)
	}
	tp.Opt.Graph()
	return tp.Opt
}

// offlineRequests is the offline stage's mix on B4: every single-fiber cut,
// then pairs and triples, whose blocks repeat the singles' and each other's,
// in both tuning modes and now and then cold (NoWarm), shuffled so that big
// models follow small ones and small ones big.
func offlineRequests(t testing.TB, n *optical.Network) []*rwa.Request {
	base := rwa.Request{Net: n, K: 3, AllowTuning: true, AllowModulationChange: true}
	var reqs []*rwa.Request
	for f := range n.Fibers {
		req := base
		req.Cut = []int{f}
		reqs = append(reqs, &req)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		req := base
		req.Cut = rng.Perm(len(n.Fibers))[:2+i%2]
		req.AllowTuning = i%5 != 0
		req.NoWarm = i%11 == 0
		reqs = append(reqs, &req)
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

type offlineArtifacts struct {
	res     *rwa.Result
	asg     *rwa.Assignment
	tickets []ticket.Ticket
}

func generate(res *rwa.Result, seed int64) []ticket.Ticket {
	return ticket.Generate(res, ticket.Options{Count: 12, Seed: seed, CheckFeasibility: true, Dedup: true})
}

// One scratch carried through the whole shuffled sequence — its masks,
// bitmaps, model, occupancy stamps and buffers left dirty by every earlier
// request — returns what a new scratch per request returns.
func TestSolveDirtyScratchMatchesFresh(t *testing.T) {
	n := b4(t)
	reqs := offlineRequests(t, n)
	run := func(scratchFor func() *rwa.Scratch, beforePooled func()) []offlineArtifacts {
		out := make([]offlineArtifacts, len(reqs))
		for i, req := range reqs {
			res, err := scratchFor().Solve(req)
			if err != nil {
				t.Fatalf("request %d (cut %v): %v", i, req.Cut, err)
			}
			out[i].res = res
			if len(res.Failed) == 0 {
				continue
			}
			out[i].asg, _ = scratchFor().AssignIntegral(res, res.OrigWaves)
			beforePooled()
			out[i].tickets = generate(res, int64(i))
		}
		return out
	}
	dirty := new(rwa.Scratch)
	got := run(func() *rwa.Scratch { return dirty }, func() {})
	want := run(func() *rwa.Scratch { return new(rwa.Scratch) }, rwa.DropPooledScratches)
	sizes := map[int]int{}
	for i := range reqs {
		if !reflect.DeepEqual(got[i].res, want[i].res) {
			t.Fatalf("request %d (cut %v): dirty scratch solved to %+v, fresh to %+v", i, reqs[i].Cut, got[i].res, want[i].res)
		}
		if !reflect.DeepEqual(got[i].asg, want[i].asg) {
			t.Fatalf("request %d (cut %v): dirty scratch assigned %+v, fresh %+v", i, reqs[i].Cut, got[i].asg, want[i].asg)
		}
		if !reflect.DeepEqual(got[i].tickets, want[i].tickets) {
			t.Fatalf("request %d (cut %v): tickets %+v after dirty scratches, %+v after fresh", i, reqs[i].Cut, got[i].tickets, want[i].tickets)
		}
		if len(got[i].tickets) > 0 {
			sizes[len(reqs[i].Cut)]++
		}
	}
	if sizes[1] < 10 || sizes[2] < 10 || sizes[3] < 10 {
		t.Fatalf("requests with tickets by cut size: %v", sizes)
	}
}

// artifactsOf solves req and, if it fails a link, assigns and rolls the
// tickets of request i.
func artifactsOf(t *testing.T, req *rwa.Request, i int) offlineArtifacts {
	res, err := rwa.Solve(req)
	if err != nil {
		t.Error(err)
		return offlineArtifacts{}
	}
	a := offlineArtifacts{res: res}
	if len(res.Failed) > 0 {
		a.asg, _ = rwa.AssignIntegral(res, res.OrigWaves)
		a.tickets = generate(res, int64(i))
	}
	return a
}

// inStep runs check(w, i) for every request index on two goroutines, the
// second walking the requests backwards so that the two meet mid-way.
func inStep(n int, check func(w, i int) bool) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := k
				if w == 1 {
					i = n - 1 - k
				}
				if !check(w, i) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Goroutines sharing one optical.Network — its graph, its incidence index —
// and the pools behind Solve, AssignIntegral and Generate get what a single
// goroutine gets (run under -race).
func TestOfflineStageConcurrentOnSharedNetwork(t *testing.T) {
	n := b4(t)
	reqs := offlineRequests(t, n)[:40]
	want := make([]offlineArtifacts, len(reqs))
	for i := range reqs {
		want[i] = artifactsOf(t, reqs[i], i)
	}
	inStep(len(reqs), func(w, i int) bool {
		if got := artifactsOf(t, reqs[i], i); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("goroutine %d, request %d (cut %v): %+v, alone %+v", w, i, reqs[i].Cut, got, want[i])
			return false
		}
		return true
	})
}

// One memo shared by two goroutines over the offline mix on B4 — singles and
// multi-cuts whose blocks the memo answers, both tuning modes, cold and
// slack starts — changes no result, assignment or ticket of a request solved
// without it (run under -race).
func TestMemoSharedByGoroutinesMatchesPlainSolves(t *testing.T) {
	n := b4(t)
	reqs := offlineRequests(t, n)
	want := make([]offlineArtifacts, len(reqs))
	for i := range reqs {
		want[i] = artifactsOf(t, reqs[i], i)
	}
	memo := rwa.NewMemo(n)
	inStep(len(reqs), func(w, i int) bool {
		req := *reqs[i]
		req.Memo = memo
		got := artifactsOf(t, &req, i)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("goroutine %d, request %d (cut %v): with the memo %+v, without %+v", w, i, reqs[i].Cut, got, want[i])
			return false
		}
		return true
	})
}

// Goroutines walking the same requests at once through one memo solve each
// block once, as one goroutine does: a solve that finds a block in flight
// waits for it instead of solving it again (run under -race).
func TestMemoSolvesEachBlockOnce(t *testing.T) {
	n := b4(t)
	reqs := offlineRequests(t, n)
	solveAll := func(memo *rwa.Memo, reg *obs.Registry) {
		for _, r := range reqs {
			req := *r
			req.Memo, req.Recorder = memo, reg
			if _, err := rwa.Solve(&req); err != nil {
				t.Error(err)
				return
			}
		}
	}
	alone := obs.NewRegistry()
	solveAll(rwa.NewMemo(n), alone)
	want := alone.Counter("rwa.block_solves")
	for trial := 0; trial < 5; trial++ {
		memo, reg := rwa.NewMemo(n), obs.NewRegistry()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				solveAll(memo, reg)
			}()
		}
		wg.Wait()
		if got := reg.Counter("rwa.block_solves"); got != want {
			t.Fatalf("trial %d: 8 goroutines solved %d blocks, one alone %d", trial, got, want)
		}
		if hits := reg.Counter("rwa.block_hits"); hits != 8*alone.Counter("rwa.block_hits")+7*want {
			t.Fatalf("trial %d: %d hits, want %d", trial, hits, 8*alone.Counter("rwa.block_hits")+7*want)
		}
	}
}

var benchTickets []ticket.Ticket

// BenchmarkOfflineScenario is one scenario of the offline stage: a B4
// triple-cut Solve, the naive integral candidate, twelve rounded tickets.
func BenchmarkOfflineScenario(b *testing.B) {
	n := b4(b)
	req := &rwa.Request{Net: n, Cut: []int{2, 7, 11}, K: 3, AllowTuning: true, AllowModulationChange: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rwa.Solve(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Failed) == 0 {
			b.Fatal("the cut fails no link")
		}
		rwa.MaxIntegralWaves(res)
		benchTickets = generate(res, int64(i))
	}
}
