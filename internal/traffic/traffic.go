// Package traffic synthesises the demand matrices used in the evaluation.
//
// The paper uses 12 production traffic matrices for the Facebook topology
// and 30 SMORE-generated matrices (fitted to real traffic with diurnal and
// weekly patterns) for B4 and IBM. This package substitutes a gravity model
// with per-site weights modulated by a diurnal/weekly pattern, which is the
// standard synthetic stand-in (and what SMORE itself fits). Matrices are
// deterministic per seed.
package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"github.com/arrow-te/arrow/internal/te"
)

// Matrix is one traffic matrix: flows with demands, aggregated by
// ingress-egress router pair.
type Matrix struct {
	Flows []te.Flow
	// Epoch is the matrix's position in the diurnal sequence.
	Epoch int
}

// Options configures matrix generation.
type Options struct {
	Sites int
	// Count is how many matrices to generate (diurnal sequence length).
	Count int
	// MaxFlows keeps only the largest flows (0 = all pairs). Production
	// matrices are sparse; this also keeps LP sizes tractable.
	MaxFlows int
	// TotalGbps scales each matrix to this total demand before
	// normalisation (default 10000).
	TotalGbps float64
	Seed      int64
}

// Generate produces Count gravity-model matrices with diurnal modulation.
func Generate(opts Options) []Matrix {
	rng := rand.New(rand.NewSource(opts.Seed))
	total := opts.TotalGbps
	if total <= 0 {
		total = 10000
	}
	// Per-site gravity weights: lognormal, representing site size.
	w := make([]float64, opts.Sites)
	for i := range w {
		w[i] = math.Exp(rng.NormFloat64() * 0.8)
	}
	// Per-pair affinity noise, fixed across epochs.
	aff := make([][]float64, opts.Sites)
	for i := range aff {
		aff[i] = make([]float64, opts.Sites)
		for j := range aff[i] {
			if i != j {
				aff[i][j] = 0.5 + float64(rng.Float64()) // the inlined draw is a product
			}
		}
	}

	var out []Matrix
	for epoch := 0; epoch < opts.Count; epoch++ {
		// Diurnal factor: sites peak at different phases; weekly dip.
		day := float64(epoch) / 4.0
		weekly := 1.0
		if int(day)%7 >= 5 {
			weekly = 0.75
		}
		var flows []te.Flow
		sum := 0.0
		for i := 0; i < opts.Sites; i++ {
			phase := 2 * math.Pi * float64(i) / float64(opts.Sites)
			di := 1 + float64(0.3*math.Sin(float64(2*math.Pi*float64(epoch)/4)+phase))
			for j := 0; j < opts.Sites; j++ {
				if i == j {
					continue
				}
				d := float64(w[i] * w[j] * aff[i][j] * di * weekly)
				flows = append(flows, te.Flow{Src: i, Dst: j, Demand: d})
				sum += d
			}
		}
		for i := range flows {
			flows[i].Demand *= total / sum
		}
		if opts.MaxFlows > 0 && len(flows) > opts.MaxFlows {
			// Keep the largest flows (production matrices are sparse).
			sortByDemandDesc(flows)
			flows = flows[:opts.MaxFlows]
			// Re-scale to preserve total.
			s := 0.0
			for _, f := range flows {
				s += f.Demand
			}
			for i := range flows {
				flows[i].Demand *= total / s
			}
		}
		out = append(out, Matrix{Flows: flows, Epoch: epoch})
	}
	return out
}

func sortByDemandDesc(flows []te.Flow) {
	for i := 1; i < len(flows); i++ {
		f := flows[i]
		j := i - 1
		for j >= 0 && flows[j].Demand < f.Demand {
			flows[j+1] = flows[j]
			j--
		}
		flows[j+1] = f
	}
}

// NormalizeToFit uniformly scales the network's demands so that 100% of
// demand is exactly satisfiable (the paper's "demand scale 1.0" reference:
// production WANs are over-provisioned, so evaluation starts from a fully
// satisfiable state and scales up). It returns the scale factor applied.
func NormalizeToFit(n *te.Network) (float64, error) {
	s, err := te.MaxConcurrentScale(n)
	if err != nil {
		return 0, err
	}
	if s <= 0 {
		return 0, nil
	}
	for i := range n.Flows {
		n.Flows[i].Demand *= s
	}
	return s, nil
}

// ReadCSV parses "src,dst,gbps" lines into a Matrix, skipping blank and #
// lines. It is the demand parser behind arrow-plan's -demands flag.
func ReadCSV(r io.Reader) (Matrix, error) {
	var m Matrix
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return m, fmt.Errorf("traffic: line %d: want src,dst,gbps", lineNo)
		}
		src, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		dst, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		g, err3 := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil || g < 0 {
			return m, fmt.Errorf("traffic: line %d: bad flow %q", lineNo, line)
		}
		m.Flows = append(m.Flows, te.Flow{Src: src, Dst: dst, Demand: g})
	}
	return m, sc.Err()
}
