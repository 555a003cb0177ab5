package optical

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/arrow-te/arrow/internal/spectrum"
)

// refFailedLinks and refSpectrumUnderCut are the two queries as they were:
// a scan of every wavelength of every link against a set of the cut fibers.

func refFailedLinks(n *Network, cut []int) []int {
	cutSet := map[int]bool{}
	for _, id := range cut {
		cutSet[id] = true
	}
	var out []int
	for _, l := range n.IPLinks {
		failed := false
		for _, w := range l.Waves {
			for _, fid := range w.FiberPath {
				if cutSet[fid] {
					failed = true
				}
			}
		}
		if failed {
			out = append(out, l.ID)
		}
	}
	return out
}

func refSpectrumUnderCut(n *Network, cut []int) []*spectrum.Bitmap {
	cutSet := map[int]bool{}
	for _, id := range cut {
		cutSet[id] = true
	}
	out := make([]*spectrum.Bitmap, len(n.Fibers))
	for i, f := range n.Fibers {
		if cutSet[i] {
			out[i] = spectrum.NewBitmap(n.SlotCount)
		} else {
			out[i] = f.Slots.Clone()
		}
	}
	for _, lid := range refFailedLinks(n, cut) {
		for _, w := range n.IPLinks[lid].Waves {
			for _, fid := range w.FiberPath {
				if !cutSet[fid] {
					out[fid].Set(w.Slot, true)
				}
			}
		}
	}
	return out
}

// randomCut draws up to three fiber IDs, some repeated, some the network
// does not have.
func randomCut(rng *rand.Rand, n *Network) []int {
	cut := make([]int, 1+rng.Intn(3))
	for i := range cut {
		switch rng.Intn(6) {
		case 0:
			cut[i] = len(n.Fibers) + rng.Intn(3)
		case 1:
			cut[i] = -1 - rng.Intn(3)
		case 2:
			cut[i] = cut[rng.Intn(i+1)]
		default:
			cut[i] = rng.Intn(len(n.Fibers))
		}
	}
	return cut
}

func TestCutQueriesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var reused []*spectrum.Bitmap
	var mask []bool
	var prev []int
	for trial := 0; trial < 200; trial++ {
		n := randomNetwork(rng)
		for q := 0; q < 8; q++ {
			if q == 4 {
				// Changing the links must drop the incidence index: a new
				// link on a new fiber.
				f := n.AddFiber(0, 1, 100)
				if _, err := n.Provision(0, 1, []Lightpath{{Slot: 0, Modulation: spectrum.Table6[0], FiberPath: []int{f.ID}}}); err != nil {
					t.Fatal(err)
				}
			}
			cut := randomCut(rng, n)
			failed := n.FailedLinks(cut)
			if want := refFailedLinks(n, cut); !reflect.DeepEqual(failed, want) {
				t.Fatalf("trial %d: FailedLinks(%v) = %v, want %v", trial, cut, failed, want)
			}
			// The same appended behind another cut's links.
			prev = n.AppendFailedLinks(prev[:0], []int{0, len(n.Fibers) - 1})
			lo := len(prev)
			prev = n.AppendFailedLinks(prev, cut)
			if got := prev[lo:]; len(got) != len(failed) || (len(got) > 0 && !reflect.DeepEqual(got, failed)) {
				t.Fatalf("trial %d: AppendFailedLinks(%v) appended %v, want %v", trial, cut, got, failed)
			}
			want := refSpectrumUnderCut(n, cut)
			if got := n.SpectrumUnderCut(cut); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: SpectrumUnderCut(%v) differs from the scan", trial, cut)
			}
			// The same into bitmaps that held another cut's, or another
			// network's, spectrum.
			mask = n.CutMask(mask, cut)
			reused = n.SpectrumUnderCutInto(reused, mask, failed)
			if !reflect.DeepEqual(reused, want) {
				t.Fatalf("trial %d: SpectrumUnderCutInto(%v) differs from the scan", trial, cut)
			}
		}
	}
}

// Concurrent queries build the incidence index once, under the lock (run
// under -race).
func TestCutQueriesConcurrent(t *testing.T) {
	n := randomNetwork(rand.New(rand.NewSource(3)))
	want := refFailedLinks(n, []int{0, 1})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := n.FailedLinks([]int{0, 1}); !reflect.DeepEqual(got, want) {
				t.Errorf("FailedLinks = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}
