package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"mccatch"
)

func TestCheckAUROCFloor(t *testing.T) {
	labels := []bool{false, false, true, false, true}
	good := []float64{0.1, 0.2, 0.9, 0.3, 0.8} // outliers rank first: AUROC 1
	bad := []float64{0.9, 0.8, 0.1, 0.7, 0.2}  // outliers rank last: AUROC 0
	if a, err := checkAUROC(good, labels, namesAUROCFloor); err != nil || a != 1 {
		t.Errorf("perfect ranking: AUROC %v, %v", a, err)
	}
	if a, err := checkAUROC(bad, labels, namesAUROCFloor); err == nil || a != 0 {
		t.Errorf("inverted ranking: AUROC %v passed the floor", a)
	}
	// One of the six outlier/inlier pairs misordered: AUROC 5/6.
	mixed := []float64{0.1, 0.2, 0.9, 0.85, 0.8}
	a, err := checkAUROC(mixed, labels, 0)
	if err != nil || math.Abs(a-5.0/6) > 1e-12 {
		t.Fatalf("AUROC %v, want 5/6", a)
	}
	if _, err := checkAUROC(mixed, labels, a); err != nil {
		t.Errorf("AUROC equal to the floor failed: %v", err)
	}
	if _, err := checkAUROC(mixed, labels, math.Nextafter(a, 1)); err == nil {
		t.Error("AUROC just below the floor passed")
	}
}

func TestCheckPlanted(t *testing.T) {
	res := &mccatch.Result{Microclusters: []mccatch.Microcluster{{Members: []int{7}}, {Members: []int{3, 4, 5}}}}
	if err := checkPlanted(res, []int{5, 3, 4}); err != nil {
		t.Errorf("planted cluster found as one microcluster: %v", err)
	}
	if err := checkPlanted(res, []int{3, 4}); err == nil {
		t.Error("a microcluster with an extra member passed")
	}
	if err := checkPlanted(res, []int{3, 4, 5, 7}); err == nil {
		t.Error("a planted cluster split over two microclusters passed")
	}
}

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json's workload and
// metric lists, units included, to the ones this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, the program runs %v", names, workloadNames())
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.name, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
