package spectrum

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBitmapSetGet(t *testing.T) {
	b := NewBitmap(96)
	if b.Count() != 0 {
		t.Fatalf("new bitmap count %d", b.Count())
	}
	b.Set(0, true)
	b.Set(95, true)
	b.Set(63, true)
	b.Set(64, true)
	if !b.Available(0) || !b.Available(95) || !b.Available(63) || !b.Available(64) {
		t.Fatal("set bits not readable")
	}
	if b.Available(1) {
		t.Fatal("unset bit reads true")
	}
	if b.Count() != 4 {
		t.Fatalf("count %d", b.Count())
	}
	b.Set(63, false)
	if b.Available(63) || b.Count() != 3 {
		t.Fatal("clear failed")
	}
}

func TestBitmapBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBitmap(8).Available(8)
}

func TestAllAvailableAndUtilization(t *testing.T) {
	b := AllAvailable(96)
	if b.Count() != 96 || b.Utilization() != 0 {
		t.Fatalf("count %d util %g", b.Count(), b.Utilization())
	}
	for i := 0; i < 24; i++ {
		b.Set(i, false)
	}
	if b.Utilization() != 0.25 {
		t.Fatalf("utilization %g", b.Utilization())
	}
}

func TestIntersectContinuity(t *testing.T) {
	// Fig. 5(b) scenario: three fibers each 75% available but only a small
	// common window usable end-to-end.
	fa, fb, fc := NewBitmap(8), NewBitmap(8), NewBitmap(8)
	for _, i := range []int{0, 1, 2, 3, 4, 5} {
		fa.Set(i, true)
	}
	for _, i := range []int{2, 3, 4, 5, 6, 7} {
		fb.Set(i, true)
	}
	for _, i := range []int{0, 1, 2, 6, 5, 7} {
		fc.Set(i, true)
	}
	common := PathSpectrum([]*Bitmap{fa, fb, fc})
	if common.Count() != 2 { // slots 2 and 5
		t.Fatalf("common slots %d", common.Count())
	}
	if !common.Available(2) || !common.Available(5) {
		t.Fatal("wrong common slots")
	}
	if got := common.AppendAvailable(nil); !slices.Equal(got, []int{2, 5}) {
		t.Fatalf("available slots %v, want [2 5]", got)
	}
}

func TestIntersectProperty(t *testing.T) {
	// Property: after c.IntersectInto(b) on a clone c of a,
	// c.Available(i) == a.Available(i) && b.Available(i).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		a, b := NewBitmap(n), NewBitmap(n)
		for i := 0; i < n; i++ {
			a.Set(i, rng.Intn(2) == 0)
			b.Set(i, rng.Intn(2) == 0)
		}
		c := a.Clone()
		c.IntersectInto(b)
		for i := 0; i < n; i++ {
			if c.Available(i) != (a.Available(i) && b.Available(i)) {
				return false
			}
		}
		// Count is consistent with Available.
		cnt := 0
		for i := 0; i < n; i++ {
			if c.Available(i) {
				cnt++
			}
		}
		return cnt == c.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := AllAvailable(10)
	b := a.Clone()
	b.Set(3, false)
	if !a.Available(3) {
		t.Fatal("clone aliases original")
	}
}

func TestBestModulation(t *testing.T) {
	cases := []struct {
		km   float64
		want float64
		ok   bool
	}{
		{500, 400, true},
		{1000, 400, true},
		{1200, 300, true},
		{2500, 200, true},
		{4000, 100, true},
		{5000, 100, true},
		{6000, 0, false},
	}
	for _, c := range cases {
		m, ok := BestModulation(c.km)
		if ok != c.ok || (ok && m.GbpsPerWavelength != c.want) {
			t.Fatalf("BestModulation(%g) = %v %v, want %g %v", c.km, m.GbpsPerWavelength, ok, c.want, c.ok)
		}
	}
}

func TestModulationByRate(t *testing.T) {
	m, ok := ModulationByRate(200)
	if !ok || m.ReachKm != 3000 {
		t.Fatalf("got %+v %v", m, ok)
	}
	if _, ok := ModulationByRate(150); ok {
		t.Fatal("unexpected modulation")
	}
}

// TestFirstAvailableEmpty checks that a bitmap with every slot in use offers
// no first available slot: AppendAvailable lists nothing.
func TestFirstAvailableEmpty(t *testing.T) {
	if got := NewBitmap(70).AppendAvailable(nil); len(got) != 0 {
		t.Fatalf("empty bitmap lists available slots %v", got)
	}
}

func TestCopyClearAppendAvailable(t *testing.T) {
	a := NewBitmap(130)
	want := []int{0, 5, 63, 64, 100, 129}
	for _, s := range want {
		a.Set(s, true)
	}
	got := a.AppendAvailable([]int{-1})
	if len(got) != len(want)+1 || got[0] != -1 {
		t.Fatalf("AppendAvailable %v", got)
	}
	for i, s := range want {
		if got[i+1] != s {
			t.Fatalf("AppendAvailable %v, want %v after the prefix", got, want)
		}
	}
	b := AllAvailable(130)
	b.CopyFrom(a)
	if b.Count() != len(want) || !b.Available(129) || b.Available(1) {
		t.Fatalf("CopyFrom left %d slots", b.Count())
	}
	b.Clear()
	if b.Count() != 0 || a.Count() != len(want) {
		t.Fatalf("Clear left %d slots, source has %d", b.Count(), a.Count())
	}
}
