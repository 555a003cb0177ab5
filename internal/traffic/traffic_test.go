package traffic

import (
	"math"
	"strings"
	"testing"

	"github.com/arrow-te/arrow/internal/te"
	"github.com/arrow-te/arrow/internal/topo"
)

func TestGenerateBasics(t *testing.T) {
	ms := Generate(Options{Sites: 12, Count: 30, TotalGbps: 5000, Seed: 1})
	if len(ms) != 30 {
		t.Fatalf("%d matrices", len(ms))
	}
	for mi, m := range ms {
		if len(m.Flows) != 12*11 {
			t.Fatalf("matrix %d has %d flows", mi, len(m.Flows))
		}
		sum := 0.0
		for _, f := range m.Flows {
			if f.Demand < 0 || f.Src == f.Dst {
				t.Fatalf("bad flow %+v", f)
			}
			sum += f.Demand
		}
		if math.Abs(sum-5000) > 1e-6 {
			t.Fatalf("matrix %d total %g", mi, sum)
		}
	}
}

func TestGenerateDiurnalVariation(t *testing.T) {
	ms := Generate(Options{Sites: 8, Count: 8, TotalGbps: 1000, Seed: 2})
	// Individual flows must vary across epochs (diurnal pattern) even
	// though totals are fixed.
	varies := false
	for fi := range ms[0].Flows {
		if math.Abs(ms[0].Flows[fi].Demand-ms[3].Flows[fi].Demand) > 1e-9 {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("no diurnal variation across epochs")
	}
}

func TestGenerateMaxFlows(t *testing.T) {
	ms := Generate(Options{Sites: 10, Count: 2, MaxFlows: 20, TotalGbps: 1000, Seed: 3})
	for _, m := range ms {
		if len(m.Flows) != 20 {
			t.Fatalf("%d flows, want 20", len(m.Flows))
		}
		sum := 0.0
		for _, f := range m.Flows {
			sum += f.Demand
		}
		if math.Abs(sum-1000) > 1e-6 {
			t.Fatalf("total %g after truncation", sum)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Options{Sites: 6, Count: 3, Seed: 9})
	b := Generate(Options{Sites: 6, Count: 3, Seed: 9})
	for i := range a {
		for j := range a[i].Flows {
			if a[i].Flows[j] != b[i].Flows[j] {
				t.Fatal("same seed produced different matrices")
			}
		}
	}
}

func TestNormalizeToFit(t *testing.T) {
	tp, err := topo.B4(1)
	if err != nil {
		t.Fatal(err)
	}
	ms := Generate(Options{Sites: 12, Count: 1, MaxFlows: 40, TotalGbps: 1e6, Seed: 4})
	n, err := tp.TENetwork(ms[0].Flows, 6)
	if err != nil {
		t.Fatal(err)
	}
	scale, err := NormalizeToFit(n)
	if err != nil {
		t.Fatal(err)
	}
	if scale <= 0 {
		t.Fatalf("scale %g", scale)
	}
	// After normalisation, everything is satisfiable...
	al, err := te.MaxThroughput(n)
	if err != nil {
		t.Fatal(err)
	}
	if thr := al.Throughput(n); math.Abs(thr-1) > 1e-6 {
		t.Fatalf("throughput %g after normalisation", thr)
	}
	// ...and 1% more demand is not.
	n2 := n.Scaled(1.01)
	al2, err := te.MaxThroughput(n2)
	if err != nil {
		t.Fatal(err)
	}
	if thr := al2.Throughput(n2); thr >= 1-1e-9 {
		t.Fatalf("throughput %g at 1.01x, normalisation not tight", thr)
	}
}

func TestReadCSVErrors(t *testing.T) {
	for _, in := range []string{"1,2\n", "a,b,c\n", "0,1,-3\n"} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}
