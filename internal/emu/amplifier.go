package emu

import (
	"math"
	"math/rand"
)

// Amplifier models one EDFA's gain controller. When the set of wavelengths
// on its fiber changes, the total input power shifts and the amplifier must
// re-converge its gain through repeated observe-analyze-act loops
// (Appendix A.7): each loop measures the per-channel output power, computes
// a correction, and applies a damped adjustment. Vendors ship conservative
// loop parameters — one loop takes several seconds and corrections are
// deliberately partial to avoid oscillation across a cascade.
type Amplifier struct {
	// LoopSec is one observe-analyze-act cycle (default 12 s).
	LoopSec float64
	// Damping is the fraction of the measured error corrected per loop
	// (default 0.55; < 1 for cascade stability).
	Damping float64
	// ToleranceDB ends convergence when |error| falls below it (default 0.3).
	ToleranceDB float64
	// MaxLoops bounds a single settling episode (default 40).
	MaxLoops int
}

func (a Amplifier) withDefaults() Amplifier {
	if a.LoopSec <= 0 {
		a.LoopSec = 12
	}
	if a.Damping <= 0 || a.Damping >= 1 {
		a.Damping = 0.55
	}
	if a.ToleranceDB <= 0 {
		a.ToleranceDB = 0.3
	}
	if a.MaxLoops <= 0 {
		a.MaxLoops = 40
	}
	return a
}

// GainStep is one point of a settling trace.
type GainStep struct {
	TimeSec float64
	ErrorDB float64
}

// Settle simulates convergence from an initial gain error (dB, signed) and
// returns the trace and total settling time. rng adds per-loop measurement
// noise; pass nil for the deterministic envelope.
func (a Amplifier) Settle(initialErrDB float64, rng *rand.Rand) ([]GainStep, float64) {
	a = a.withDefaults()
	err := initialErrDB
	t := 0.0
	trace := []GainStep{{0, err}}
	for i := 0; i < a.MaxLoops && math.Abs(err) > a.ToleranceDB; i++ {
		t += a.LoopSec
		correction := a.Damping * err
		if rng != nil {
			correction *= 0.85 + float64(0.3*rng.Float64())
		}
		err -= correction
		trace = append(trace, GainStep{t, err})
	}
	return trace, t
}

// SettleTime returns just the convergence time for a typical wavelength
// reconfiguration (the power shift when channels appear/disappear on a
// legacy fiber is a few dB).
func (a Amplifier) SettleTime(initialErrDB float64, rng *rand.Rand) float64 {
	_, t := a.Settle(initialErrDB, rng)
	return t
}

// typicalReconfigErrDB samples the gain error caused by a wavelength
// reconfiguration on a legacy (non-noise-loaded) fiber: proportional to the
// relative change in lit channel count, a few dB for typical events.
func typicalReconfigErrDB(rng *rand.Rand) float64 {
	return 2 + float64(2.5*rng.Float64())
}
