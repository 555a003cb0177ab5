package pool

import (
	"runtime"
	"sync"
	"testing"
)

type ws struct{ buf []int }

func TestFreeHandsBackLastPut(t *testing.T) {
	var f Free[ws]
	a, b := f.Get(), f.Get()
	if a == b {
		t.Fatal("two items out at once are the same item")
	}
	f.Put(a)
	f.Put(b)
	if got := f.Get(); got != b {
		t.Error("Get did not return the item put back last")
	}
	if got := f.Get(); got != a {
		t.Error("Get did not return the item put back first")
	}
	if got := f.Get(); got == a || got == b {
		t.Error("an empty list handed out an item that is still out")
	}
}

func TestFreeUsesNew(t *testing.T) {
	f := Free[ws]{New: func() *ws { return &ws{buf: make([]int, 3)} }}
	if got := f.Get(); len(got.buf) != 3 {
		t.Errorf("Get on an empty list returned %+v, not what New builds", got)
	}
}

// What sync.Pool could not promise: an idle item outlives any number of
// collections and is found from whichever thread asks.
func TestFreeKeepsItemsAcrossCollections(t *testing.T) {
	var f Free[ws]
	a := f.Get()
	f.Put(a)
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	done := make(chan *ws)
	go func() {
		runtime.LockOSThread()
		done <- f.Get()
	}()
	if got := <-done; got != a {
		t.Error("the idle item did not survive three collections and a thread change")
	}
}

func TestFreeSteadyLoopDoesNotAllocate(t *testing.T) {
	var f Free[ws]
	f.Put(f.Get())
	if n := testing.AllocsPerRun(100, func() { f.Put(f.Get()) }); n != 0 {
		t.Errorf("Get+Put with an idle item allocates %v times", n)
	}
}

func TestFreeDrop(t *testing.T) {
	var f Free[ws]
	a := f.Get()
	f.Put(a)
	f.Drop()
	if got := f.Get(); got == a {
		t.Error("Get after Drop returned a dropped item")
	}
}

// The list never holds more items than were out at once, and no item is
// handed to two holders.
func TestFreeConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	var f Free[ws]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				x := f.Get()
				x.buf = append(x.buf[:0], w, i)
				runtime.Gosched()
				if x.buf[0] != w || x.buf[1] != i {
					t.Errorf("worker %d round %d: item written by another holder: %v", w, i, x.buf)
					return
				}
				f.Put(x)
			}
		}(w)
	}
	wg.Wait()
	if n := len(f.idle); n == 0 || n > workers {
		t.Errorf("%d idle items after %d workers", n, workers)
	}
}
