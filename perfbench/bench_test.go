package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestCatalogMatchesBenchmarkJSON pins the metric names and units the
// program reports to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, have map[string]string) {
		if len(declared) != len(have) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(have))
		}
		for _, m := range declared {
			if unit, ok := have[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] declared, program has [%s] (present %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "eval", ID: 4, Start: 0, End: 100},
		{Name: "http", ID: 5, Parent: 4, Start: 10, End: 90},
		{Name: "handler", ID: 6, Parent: 5, Start: 20, End: 60},
		{Name: "handler", ID: 7, Parent: 5, Start: 50, End: 70}, // overlaps its sibling
	}
	st := selfTimes(spans)
	for name, want := range map[string]float64{"eval": 20, "http": 30, "handler": 60} {
		if got := st[name].self; got != want {
			t.Errorf("%s self time %v, want %v", name, got, want)
		}
	}
	if !st["eval"].root || st["http"].root {
		t.Errorf("root flags: eval %v http %v", st["eval"].root, st["http"].root)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.99: 99, 1: 100, 0.001: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}
