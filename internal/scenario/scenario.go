// Package scenario generates the probabilistic fiber-cut failure scenarios
// used by ARROW's restoration-aware TE and by the TeaVaR baseline.
//
// Following §6 of the paper (which follows TeaVaR's methodology), each
// fiber's failure probability is drawn from a Weibull distribution
// (shape 0.8, scale 0.02); EnumerateCorrelated with K = 2 and no groups keeps
// all single and double fiber cuts whose joint probability exceeds a
// per-topology cutoff.
//
// # Probability model for correlated cuts
//
// EnumerateCorrelated generalises this to k simultaneous failures with
// shared-risk link groups (SRLGs). The failure ELEMENTS are the n individual
// fibers (marginal probability p_i, from the Weibull draw) plus the m SRLGs
// (conduit-cut probability q_g), all mutually independent: a conduit cut is
// a separate physical event — a backhoe through the duct — that takes every
// member fiber down at once, on top of whatever the fibers do individually.
// A failure scenario is a subset S of elements; its exact probability is
//
//	P(exactly S) = prod_{e in S} p_e * prod_{e not in S} (1 - p_e)
//	             = healthy * prod_{e in S} p_e/(1-p_e)
//
// where healthy is the all-elements-up probability. The scenario's CUT SET
// is the union of member fibers over S (an SRLG element expands to all its
// fibers). Distinct element subsets can induce the same cut set — an SRLG
// expansion overlapping a member fiber's individual failure — and their
// masses are MERGED onto one emitted scenario, so no cut set is
// double-counted.
//
// Element probabilities are assumed < 0.5 (odds < 1); FailureProbabilities
// clamps its draws to 0.1 and the named topologies' conduit probabilities
// sit well below that. The best-first enumeration order and its pruning
// soundness rely on this: with odds < 1, adding an element never increases
// a scenario's probability.
package scenario

import (
	"math/rand"

	"github.com/arrow-te/arrow/internal/stats"
)

// Default Weibull parameters from §6 of the paper.
const (
	DefaultShape = 0.8
	DefaultScale = 0.02
)

// Scenario is one failure scenario q: a set of cut fibers and the
// probability of exactly this set failing (all others healthy).
type Scenario struct {
	Cut  []int
	Prob float64
}

// Set is an ordered collection of failure scenarios for one topology.
type Set struct {
	// FailProb[i] is fiber i's marginal failure probability.
	FailProb []float64
	// Scenarios are the retained cut scenarios, most probable first.
	Scenarios []Scenario
	// HealthyProb is the probability that no fiber fails.
	HealthyProb float64
	// ResidualProb is the probability mass of scenarios below the cutoff
	// (not enumerated). Availability computations count it as loss-free for
	// none: callers decide how to attribute it.
	ResidualProb float64
}

// FailureProbabilities samples a Weibull failure probability for each of n
// fibers, deterministically from seed. Values are clamped to [0, 0.1]: the
// Weibull(0.8, 0.02) tail occasionally produces per-epoch failure odds that
// would dominate the scenario set, which no production fiber exhibits.
func FailureProbabilities(n int, shape, scale float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		p := stats.Weibull(rng, shape, scale)
		if p > 0.1 {
			p = 0.1
		}
		out[i] = p
	}
	return out
}
