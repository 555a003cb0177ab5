// Package stats provides the small statistical helpers shared by the
// synthetic-data generators and the evaluation harness: empirical CDFs,
// percentiles, and the Weibull / log-normal samplers used to model fiber
// failure probabilities (TeaVaR methodology) and repair times.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples (which it copies and sorts).
// NaN samples are dropped: they carry no ordering information, and keeping
// them would poison every rank query (sort.Float64s leaves NaNs in
// unspecified positions).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, 0, len(samples))
	for _, x := range samples {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P[X <= x].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
// An empty CDF or NaN p yields NaN.
func (c *CDF) Percentile(p float64) float64 {
	if len(c.sorted) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 100 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(c.sorted))))
	if rank < 1 {
		rank = 1
	}
	return c.sorted[rank-1]
}

// Quantile returns the q-th quantile (q in [0,1]); equivalent to
// Percentile(100*q).
func (c *CDF) Quantile(q float64) float64 { return c.Percentile(100 * q) }

// Min returns the smallest sample, or NaN for an empty CDF.
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[0]
}

// Max returns the largest sample, or NaN for an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return c.sorted[len(c.sorted)-1]
}

// Mean returns the arithmetic mean of samples.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the middle value of xs (the mean of the two middle values
// for even counts). NaNs are dropped like NewCDF; an empty input yields NaN.
// The input is not modified.
func Median(xs []float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Summary condenses a sample set into the usual five-number-plus-mean view,
// JSON-ready for run reports.
type Summary struct {
	Count int     `json:"count"`
	Min   float64 `json:"min"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// Summarize builds a Summary from samples (NaNs dropped, like NewCDF). An
// empty input yields a zero-count Summary with zero statistics rather than
// NaNs, so reports serialise cleanly.
func Summarize(samples []float64) Summary {
	c := NewCDF(samples)
	if c.Len() == 0 {
		return Summary{}
	}
	return Summary{
		Count: c.Len(),
		Min:   c.Min(),
		P25:   c.Percentile(25),
		P50:   c.Percentile(50),
		P75:   c.Percentile(75),
		P90:   c.Percentile(90),
		Max:   c.Max(),
		Mean:  Mean(c.sorted),
	}
}

// Weibull samples a Weibull(shape, scale) variate: used by the paper's
// failure model ("Weibull distribution (shape=0.8, scale=0.02) to model the
// failure probability of each fiber").
func Weibull(rng *rand.Rand, shape, scale float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// LogNormal samples exp(N(mu, sigma)).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*rng.NormFloat64()))
}
