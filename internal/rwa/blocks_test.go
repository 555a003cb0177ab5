package rwa

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/lp"
	"github.com/arrow-te/arrow/internal/obs"
)

// FuzzRWABlocks holds the assignment LP solved block by block to the whole
// LP, and the block memo to plain solves, on random meshes, cuts, K, tuning
// and starts:
//
//   - the blocks' objective is the whole LP's to 1e-9, and the whole LP's
//     certificate passes;
//   - a solve whose every block the memo answers equals a fresh solve bit
//     for bit, and solves none;
//   - one memo shared by two goroutines, walking the requests in opposite
//     orders, gives what plain solves give (run under -race).
func FuzzRWABlocks(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed), seed%2 == 0, seed%5 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8, tuning, noWarm bool) {
		rng := rand.New(rand.NewSource(seed))
		n := meshNetwork(rng, 6+rng.Intn(10))
		n.Graph()
		reqs := make([]*Request, 8)
		want := make([]*Result, len(reqs))
		for i := range reqs {
			reqs[i] = &Request{
				Net: n, Cut: randomCut(rng, n), K: 1 + int(k%4),
				AllowTuning: tuning, AllowModulationChange: rng.Intn(2) == 0, NoWarm: noWarm,
			}
			res, err := Solve(reqs[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = res
			whole := new(scratch)
			all := make([]int, len(res.Failed))
			for li := range all {
				all[li] = li
			}
			m := whole.buildModel(res, all, "rwa", false)
			if m.NumVars() == 0 {
				if res.Objective != 0 {
					t.Fatalf("cut %v: objective %g with no variables", reqs[i].Cut, res.Objective)
				}
				continue
			}
			sol, err := lp.Solve(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := lp.CheckCertificate(sol.Cert, 0); err != nil {
				t.Fatalf("cut %v: the whole LP: %v", reqs[i].Cut, err)
			}
			if math.Abs(sol.Objective-res.Objective) > 1e-9 {
				t.Fatalf("cut %v: blocks %g, whole LP %g", reqs[i].Cut, res.Objective, sol.Objective)
			}
		}

		memo := NewMemo(n)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := range reqs {
					i := j
					if w == 1 {
						i = len(reqs) - 1 - j
					}
					req := *reqs[i]
					req.Memo = memo
					got, err := Solve(&req)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d cut %v: with the shared memo %+v, plain %+v", w, req.Cut, got, want[i])
						return
					}
				}
			}(w)
		}
		wg.Wait()

		for i := range reqs {
			reg := obs.NewRegistry()
			req := *reqs[i]
			req.Memo, req.Recorder = memo, reg
			got, err := Solve(&req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("cut %v: answered by the memo %+v, solved %+v", req.Cut, got, want[i])
			}
			if s := reg.Counter("rwa.block_solves"); s != 0 {
				t.Fatalf("cut %v: %d blocks solved again", req.Cut, s)
			}
		}
	})
}
