package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Each workload runs for a second end to end: set-up with the parity
// guard, timed load, the restart check and the oracle. Any failure of
// those is an error from measure.
func TestWorkloadSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{wl: wl, seed: 7, seconds: time.Second, work: t.TempDir()}
			m, err := measure(cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Fatalf("attempted %d, failed %d", m.attempted, m.failed)
			}
		})
	}
}

// The traced run replays the recorded inputs and reports every per-layer
// metric, none negative.
func TestTracedSmoke(t *testing.T) {
	cfg := config{wl: workloads[1], seed: 7, seconds: time.Second, work: t.TempDir()}
	m, err := measure(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range m.layers {
		if l.value < 0 {
			t.Errorf("%s = %v", l.name, l.value)
		}
	}
	checkCatalog(t, m)
}

// checkCatalog holds BENCHMARK.json to the metrics the program prints, in
// order, so the two cannot drift apart.
func checkCatalog(t *testing.T, m *measurement) {
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
	same := func(kind string, want []struct{ Name, Unit string }, got []metric) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, m.e2e)
	same("per_layer", b.PerLayer, m.layers)
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
}
