package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/arrow-te/arrow/internal/stats"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) does (exclusive method); xs needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles as a share of the median, or
// 0 when one run gives no spread to speak of.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(stats.Median(xs)))
}

// verdict compares side B against side A for one metric of one workload.
// worse is how far B's median is on the wrong side of A's, as a share of A's.
func verdict(m metric, a, b []float64) (worse float64, word string) {
	ma, mb := stats.Median(a), stats.Median(b)
	worse = ratio(mb-ma, math.Abs(ma))
	if ma == 0 {
		worse = mb // fail_ratio: any failure at all is a regression
	}
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if m.Better == "higher" && y <= x || m.Better != "higher" && y >= x {
				allBetter = false
			}
		}
	}
	wide := max(spread(a), spread(b)) > m.Bound
	switch {
	case worse > m.Bound:
		return worse, "regressed"
	case wide && allBetter:
		return worse, "improved"
	case wide:
		return worse, "unresolved"
	case worse < -m.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

func readReports(list string) ([]*report, error) {
	var out []*report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Mode != "end_to_end" {
			return nil, fmt.Errorf("%s: not an end-to-end result (mode %q)", path, rep.Mode)
		}
		out = append(out, rep)
	}
	return out, nil
}

// values collects one metric of one workload over a side's runs.
func values(reps []*report, workload, name string) []float64 {
	var out []float64
	for _, rep := range reps {
		for _, res := range rep.Workloads {
			if m, ok := res.metric(name); ok && res.Workload == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compareMain prints one row per (workload, metric) of two sides, each one
// result.json or a comma-separated list of them (several runs give the
// spread that tells unchanged from unresolved). It exits 1 on any regressed
// row, which includes a higher fail_ratio.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	var sides [2][]*report
	for i, list := range args {
		var err error
		if sides[i], err = readReports(list); err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 2
		}
	}
	return compareReports(sides[0], sides[1], stdout)
}

func compareReports(a, b []*report, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-20s %-16s %14s %14s %9s %8s  %s\n", "workload", "metric", "A (median)", "B (median)", "worse by", "bound", "verdict")
	for _, res := range a[0].Workloads {
		for _, m := range res.Metrics {
			va, vb := values(a, res.Workload, m.Name), values(b, res.Workload, m.Name)
			if len(vb) == 0 {
				fmt.Fprintf(stdout, "%-20s %-16s %14.6g %14s %9s %8s  missing in B\n", res.Workload, m.Name, stats.Median(va), "-", "-", "-")
				code = 1
				continue
			}
			worse, word := verdict(m, va, vb)
			fmt.Fprintf(stdout, "%-20s %-16s %14.6g %14.6g %+8.2f%% %7.4g%%  %s\n", res.Workload, m.Name, stats.Median(va), stats.Median(vb), 100*worse, 100*m.Bound, word)
			if word == "regressed" {
				code = 1
			}
		}
	}
	return code
}
