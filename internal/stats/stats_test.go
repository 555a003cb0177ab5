package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.At(0) != 0 || c.At(1) != 0.25 || c.At(2.5) != 0.5 || c.At(4) != 1 || c.At(99) != 1 {
		t.Fatalf("CDF values wrong: %v %v %v %v", c.At(1), c.At(2.5), c.At(4), c.At(99))
	}
	if c.Percentile(50) != 2 || c.Percentile(100) != 4 || c.Percentile(0) != 1 {
		t.Fatalf("percentiles %v %v %v", c.Percentile(50), c.Percentile(100), c.Percentile(0))
	}
	if c.Min() != 1 || c.Max() != 4 || c.Len() != 4 {
		t.Fatal("extremes wrong")
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		c := NewCDF(xs)
		prev := -1.0
		for x := -30.0; x <= 30; x += 0.5 {
			v := c.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeibullMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 200000
	shape, scale := 0.8, 0.02
	sum := 0.0
	for i := 0; i < n; i++ {
		v := Weibull(rng, shape, scale)
		if v < 0 {
			t.Fatal("negative Weibull sample")
		}
		sum += v
	}
	// E[X] = scale * Gamma(1 + 1/shape); Gamma(2.25) ~ 1.1330.
	want := scale * math.Gamma(1+1/shape)
	got := sum / n
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("Weibull mean %g want %g", got, want)
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = LogNormal(rng, math.Log(9), 1.2)
	}
	sort.Float64s(xs)
	med := xs[n/2]
	if math.Abs(med-9) > 0.5 {
		t.Fatalf("lognormal median %g want ~9", med)
	}
}

func TestCDFEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64 // NaN means "expect NaN"
		min     float64
		max     float64
	}{
		{name: "empty", samples: nil, p: 50, want: nan, min: nan, max: nan},
		{name: "all NaN", samples: []float64{nan, nan}, p: 50, want: nan, min: nan, max: nan},
		{name: "single sample", samples: []float64{7}, p: 50, want: 7, min: 7, max: 7},
		{name: "single sample p=0", samples: []float64{7}, p: 0, want: 7, min: 7, max: 7},
		{name: "single sample p=100", samples: []float64{7}, p: 100, want: 7, min: 7, max: 7},
		{name: "NaN samples dropped", samples: []float64{nan, 1, nan, 3}, p: 100, want: 3, min: 1, max: 3},
		{name: "NaN percentile arg", samples: []float64{1, 2}, p: nan, want: nan, min: 1, max: 2},
	}
	same := func(got, want float64) bool {
		if math.IsNaN(want) {
			return math.IsNaN(got)
		}
		return got == want
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCDF(tc.samples)
			if got := c.Percentile(tc.p); !same(got, tc.want) {
				t.Errorf("Percentile(%g) = %g, want %g", tc.p, got, tc.want)
			}
			if got := c.Min(); !same(got, tc.min) {
				t.Errorf("Min() = %g, want %g", got, tc.min)
			}
			if got := c.Max(); !same(got, tc.max) {
				t.Errorf("Max() = %g, want %g", got, tc.max)
			}
		})
	}
}

func TestQuantileMatchesPercentile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if c.Quantile(q) != c.Percentile(100*q) {
			t.Fatalf("Quantile(%g) = %g != Percentile(%g) = %g", q, c.Quantile(q), 100*q, c.Percentile(100*q))
		}
	}
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 || Sum(nil) != 0 {
		t.Fatal("empty slices")
	}
	if Mean([]float64{2, 4}) != 3 || Sum([]float64{2, 4}) != 6 {
		t.Fatal("mean/sum wrong")
	}
}

func TestMedian(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, nan},
		{"all-nan", []float64{nan, nan}, nan},
		{"single", []float64{7}, 7},
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"nan-dropped", []float64{1, nan, 3}, 2},
		{"negative", []float64{-5, -1, -3}, -3},
	} {
		got := Median(tc.in)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Median = %v, want NaN", tc.name, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Median = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The input must not be reordered.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}
