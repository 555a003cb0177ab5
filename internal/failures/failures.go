// Package failures synthesises the operational measurement data that
// motivates ARROW (§2.2): a corpus of WAN failure tickets calibrated to the
// statistics the paper reports for Facebook's backbone —
//
//   - 600 tickets over three years (March 2016 – June 2019);
//   - 50% of fiber-cut events last longer than nine hours, 10% over a day;
//   - fiber cuts account for ~67% of total downtime;
//   - ~16 fiber-cut events per month when counting per-fiber incidents;
//   - individual cuts cost up to ~8 Tbps of IP capacity (Fig. 4).
//
// The corpus regenerates Figs. 3 and 4, and MonthlyDeployments regenerates
// the Fig. 21 wavelength-deployment series with its COVID-19 uptick.
package failures

import (
	"math"
	"math/rand"
	"sort"

	"github.com/arrow-te/arrow/internal/stats"
)

// Cause is a failure-ticket root cause.
type Cause int

// Root causes tracked by the ticket corpus.
const (
	FiberCut Cause = iota
	Hardware
	Software
	Power
	Maintenance
	numCauses
)

func (c Cause) String() string {
	switch c {
	case FiberCut:
		return "fiber-cut"
	case Hardware:
		return "hardware"
	case Software:
		return "software"
	case Power:
		return "power"
	case Maintenance:
		return "maintenance"
	}
	return "unknown"
}

// Causes lists all root causes.
func Causes() []Cause {
	return []Cause{FiberCut, Hardware, Software, Power, Maintenance}
}

// Ticket is one failure ticket.
type Ticket struct {
	ID    int
	Cause Cause
	// StartHour is hours since the start of the measurement window.
	StartHour     float64
	DurationHours float64
	// LostGbps is the IP capacity lost (fiber cuts only).
	LostGbps float64
	// SitePair identifies the affected site pair (fiber cuts only).
	SitePair int
}

// Corpus is a synthetic ticket dataset.
type Corpus struct {
	Tickets []Ticket
	// WindowHours is the measurement window length (three years).
	WindowHours float64
	// NumSitePairs is the number of distinct site pairs cuts land on.
	NumSitePairs int
}

// Calibration targets (see package comment).
const (
	corpusTickets   = 600
	windowYears     = 3.25 // March 2016 - June 2019
	fiberCutTickets = 270

	// Fiber-cut duration: lognormal with median 9h and P(>24h) = 0.10
	// => sigma = ln(24/9) / z_0.90 = 0.981 / 1.2816.
	fiberMedianH = 9.0
	fiberSigma   = 0.7655
)

// mix defines the non-fiber causes: counts and duration medians/sigmas,
// chosen so fiber cuts come out near 67% of total downtime.
var mix = []struct {
	cause   Cause
	count   int
	medianH float64
	sigma   float64
}{
	{Hardware, 130, 3.0, 0.8},
	{Software, 90, 1.5, 0.9},
	{Power, 50, 6.0, 0.7},
	{Maintenance, 60, 4.0, 0.5},
}

// GenerateCorpus builds the deterministic synthetic ticket corpus.
func GenerateCorpus(seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{WindowHours: windowYears * 365 * 24, NumSitePairs: 40}
	id := 0
	add := func(cause Cause, medianH, sigma float64) {
		t := Ticket{
			ID:            id,
			Cause:         cause,
			StartHour:     rng.Float64() * c.WindowHours,
			DurationHours: stats.LogNormal(rng, math.Log(medianH), sigma),
		}
		if cause == FiberCut {
			// Lost capacity: heavy-tailed up to ~8 Tbps; hot site pairs
			// (0..3) attract a disproportionate share of cuts (Fig. 4a).
			t.LostGbps = math.Min(8000, stats.LogNormal(rng, math.Log(1200), 0.9))
			if rng.Float64() < 0.45 {
				t.SitePair = rng.Intn(4)
			} else {
				t.SitePair = 4 + rng.Intn(c.NumSitePairs-4)
			}
		}
		id++
		c.Tickets = append(c.Tickets, t)
	}
	for i := 0; i < fiberCutTickets; i++ {
		add(FiberCut, fiberMedianH, fiberSigma)
	}
	for _, m := range mix {
		for i := 0; i < m.count; i++ {
			add(m.cause, m.medianH, m.sigma)
		}
	}
	sort.SliceStable(c.Tickets, func(a, b int) bool { return c.Tickets[a].StartHour < c.Tickets[b].StartHour })
	for i := range c.Tickets {
		c.Tickets[i].ID = i
	}
	return c
}

// MTTRByCause returns the repair-time CDF per root cause (Fig. 3a).
func (c *Corpus) MTTRByCause() map[Cause]*stats.CDF {
	byCause := map[Cause][]float64{}
	for _, t := range c.Tickets {
		byCause[t.Cause] = append(byCause[t.Cause], t.DurationHours)
	}
	out := map[Cause]*stats.CDF{}
	for k, v := range byCause {
		out[k] = stats.NewCDF(v)
	}
	return out
}

// DowntimeShare returns each cause's fraction of total downtime (Fig. 3b).
func (c *Corpus) DowntimeShare() map[Cause]float64 {
	total := 0.0
	byCause := map[Cause]float64{}
	for _, t := range c.Tickets {
		byCause[t.Cause] += t.DurationHours
		total += t.DurationHours
	}
	for k := range byCause {
		byCause[k] /= total
	}
	return byCause
}

// FiberCutsPerMonth returns the average fiber-cut rate. The paper counts
// ~16/month including per-fiber incidents inside multi-fiber tickets; the
// corpus ticket rate is lower, so callers scale by IncidentsPerTicket.
func (c *Corpus) FiberCutsPerMonth() float64 {
	n := 0
	for _, t := range c.Tickets {
		if t.Cause == FiberCut {
			n++
		}
	}
	months := c.WindowHours / (30 * 24)
	return float64(n) / months
}

// IncidentsPerTicket is the paper-calibrated multiplier between fiber-cut
// tickets and individual fiber-cut incidents (16/month over ~7 tickets/month).
const IncidentsPerTicket = 2.3

// LostCapacityCDF returns the CDF of lost IP capacity per cut (Fig. 4b).
func (c *Corpus) LostCapacityCDF() *stats.CDF {
	var xs []float64
	for _, t := range c.Tickets {
		if t.Cause == FiberCut {
			xs = append(xs, t.LostGbps)
		}
	}
	return stats.NewCDF(xs)
}

// SeriesPoint is one event of a site pair's lost-capacity time series.
type SeriesPoint struct {
	StartHour     float64
	DurationHours float64
	LostGbps      float64
}

// LostCapacitySeries returns the Fig. 4a time series for a site pair.
func (c *Corpus) LostCapacitySeries(sitePair int) []SeriesPoint {
	var out []SeriesPoint
	for _, t := range c.Tickets {
		if t.Cause == FiberCut && t.SitePair == sitePair {
			out = append(out, SeriesPoint{t.StartHour, t.DurationHours, t.LostGbps})
		}
	}
	return out
}

// TopSitePairs returns the site pairs with the most lost capacity-hours.
func (c *Corpus) TopSitePairs(k int) []int {
	score := map[int]float64{}
	for _, t := range c.Tickets {
		if t.Cause == FiberCut {
			score[t.SitePair] += float64(t.LostGbps * t.DurationHours)
		}
	}
	var pairs []int
	for p := range score {
		pairs = append(pairs, p)
	}
	sort.SliceStable(pairs, func(a, b int) bool { return score[pairs[a]] > score[pairs[b]] })
	if k > len(pairs) {
		k = len(pairs)
	}
	return pairs[:k]
}

// MonthlyDeployments regenerates the Fig. 21 series: wavelengths deployed
// per month from November 2019 through April 2021, with the COVID-19
// traffic surge driving increased deployments from March 2020.
func MonthlyDeployments(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	const months = 18 // Nov 2019 .. Apr 2021
	out := make([]int, months)
	for m := 0; m < months; m++ {
		base := 120.0
		if m >= 4 { // March 2020 onward
			base = 220 + float64(60*math.Sin(float64(m-4)/3))
		}
		out[m] = int(base + float64(rng.Float64()*60))
	}
	return out
}
