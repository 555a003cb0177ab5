package rwa

import (
	"math/rand"
	"reflect"
	"testing"
)

// One memo serving requests in every mode — tuning or not, modulation change
// or not, any K — on networks whose round lengths make ties common returns
// what each request solves to without it, and hands out one slice for equal
// option sets.
func TestMemoSolveMatchesPlainSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shared := 0
	for trial := 0; trial < 120; trial++ {
		n := meshNetwork(rng, 6+rng.Intn(10))
		memo := NewMemo(n)
		first := map[*PathOption]bool{}
		for q := 0; q < 10; q++ {
			req := &Request{
				Net: n, Cut: randomCut(rng, n), K: 1 + rng.Intn(4),
				AllowTuning: rng.Intn(2) == 0, AllowModulationChange: rng.Intn(2) == 0,
			}
			want, err := Solve(req)
			if err != nil {
				t.Fatal(err)
			}
			withMemo := *req
			withMemo.Memo = memo
			for again := 0; again < 2; again++ {
				got, err := Solve(&withMemo)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d cut %v: with the memo %+v, without %+v", trial, req.Cut, got, want)
				}
				for _, opts := range got.Options {
					if len(opts) == 0 {
						continue
					}
					if again == 1 && !first[&opts[0]] {
						t.Fatalf("trial %d cut %v: a repeated solve got a new copy of its options", trial, req.Cut)
					}
					if again == 0 && first[&opts[0]] {
						shared++
					}
					first[&opts[0]] = true
				}
			}
		}
	}
	if shared < 100 {
		t.Fatalf("only %d option sets came back shared between different requests", shared)
	}
}

func TestMemoForAnotherNetworkPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := meshNetwork(rng, 8), meshNetwork(rng, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("a memo made for another network was used")
		}
	}()
	Solve(&Request{Net: a, Cut: []int{0}, Memo: NewMemo(b)})
}
