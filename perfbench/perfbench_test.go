package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// contract is the part of the repository's BENCHMARK.json this program
// must honour: the workload names and the metric names and units.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractNamesWorkloads(t *testing.T) {
	c := readContract(t)
	var got, want []string
	for _, w := range workloads() {
		got = append(got, w.name)
	}
	for _, w := range c.Workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workloads %v, BENCHMARK.json names %v", got, want)
	}
}

// tinyUnits runs each workload at a size that finishes in seconds.
var tinyUnits = map[string]int{"paper-784": 1, "pool-64": 2, "regions-784": 3}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			units := tinyUnits[w.name]
			c := readContract(t)
			for trace, names := range map[int][]struct{ Name, Unit string }{0: c.EndToEnd, 1: c.PerLayer} {
				res, err := benchmark(w.name, 7, 0, units, trace, t.TempDir())
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace %d: correct %v, %d of %d failed", trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(names))
				}
				for _, n := range names {
					if m, ok := res.Metrics[n.Name]; !ok || m.Unit != n.Unit {
						t.Errorf("trace %d: metric %s printed as %+v, want unit %s", trace, n.Name, m, n.Unit)
					}
				}
			}
		})
	}
}

func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]int64
			for i := range runs {
				o, err := measure(w, 3, tinyUnits[w.name], t.TempDir(), 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = o.exact
			}
			if len(runs[0]) == 0 || !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("exact counts differ between runs of one seed: %v vs %v", runs[0], runs[1])
			}
		})
	}
}

func TestBreakdownPartitionsTheWindow(t *testing.T) {
	spans := []span{
		{Name: "core", Start: 0, End: 100},
		{Name: "client", Start: 10, End: 50},
		{Name: "forward", Start: 20, End: 30},
		// Two concurrent calls count their shared time once.
		{Name: "client", Start: 60, End: 80},
		{Name: "client", Start: 70, End: 90},
	}
	self, gap := breakdown(spans, []string{"core", "client", "forward"}, 0, 120)
	want := map[string]int64{"core": 30, "client": 60, "forward": 10}
	if !reflect.DeepEqual(self, want) || gap != 20 {
		t.Fatalf("self %v gap %d, want %v gap 20", self, gap, want)
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(30 - i)
	}
	v, p := tailLatency(xs)
	if v != 20 || p != 100*20.0/30 {
		t.Fatalf("tail %v at p%v, want 20 at p%v", v, p, 100*20.0/30)
	}
}

func TestNearestBoundary(t *testing.T) {
	// At x = (0.3, 0.6) the first layer's pre-activations are (0.3, 0.2),
	// 0.3 and 0.1 from their boundaries; the second layer's unit reads
	// 0.3 + 0.2 + b with gradient (1, 2) in x.
	x := mat.Vec{0.3, 0.6}
	for _, tc := range []struct {
		b           float64
		dist        float64
		layer, unit int
	}{
		{b: -0.85, dist: 0.1, layer: 0, unit: 1},
		{b: -0.55, dist: 0.05 / math.Sqrt(5), layer: 1, unit: 0},
	} {
		net := nn.FromLayers(
			nn.Layer{W: mat.FromRows(mat.Vec{1, 0}, mat.Vec{0, 2}), B: mat.Vec{0, -1}},
			nn.Layer{W: mat.FromRows(mat.Vec{1, 1}), B: mat.Vec{tc.b}},
			nn.Layer{W: mat.FromRows(mat.Vec{1}, mat.Vec{-1}), B: mat.Vec{0, 0}},
		)
		dist, layer, unit := nearestBoundary(net, x)
		if math.Abs(dist-tc.dist) > 1e-12 || layer != tc.layer || unit != tc.unit {
			t.Errorf("b %g: %g from layer %d unit %d, want %g from layer %d unit %d",
				tc.b, dist, layer, unit, tc.dist, tc.layer, tc.unit)
		}
	}
}
