package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSeedDeterminesInputs pins the generator contract: one seed always
// yields byte-identical batches and query sequences, and a different
// seed yields different ones.
func TestSeedDeterminesInputs(t *testing.T) {
	render := func(seed int64) ([]batch, []batch, *queryPlan) {
		unit := genBatches(seed, 4, 500, false)
		weighted := genBatches(seed, 4, 500, true)
		return unit, weighted, genQueryPlan(seed, "bench", unit, 4096)
	}
	u1, w1, q1 := render(7)
	u2, w2, q2 := render(7)
	for i := range u1 {
		if !bytes.Equal(u1[i].body, u2[i].body) || !bytes.Equal(w1[i].body, w2[i].body) {
			t.Fatalf("seed 7 rendered batch %d differently on a second call", i)
		}
	}
	if !samePlan(q1, q2) {
		t.Fatal("seed 7 rendered two different query plans")
	}

	u3, w3, q3 := render(8)
	if bytes.Equal(u1[0].body, u3[0].body) || bytes.Equal(w1[0].body, w3[0].body) {
		t.Fatal("seeds 7 and 8 rendered the same first batch")
	}
	if samePlan(q1, q3) {
		t.Fatal("seeds 7 and 8 rendered the same query plan")
	}
}

// samePlan compares everything a plan sends: request targets, query
// bodies and the op sequence.
func samePlan(a, b *queryPlan) bool {
	if !reflect.DeepEqual(a.topKPath, b.topKPath) || !reflect.DeepEqual(a.sumPath, b.sumPath) ||
		!reflect.DeepEqual(a.estPath, b.estPath) || !reflect.DeepEqual(a.seq, b.seq) || len(a.groups) != len(b.groups) {
		return false
	}
	for i := range a.groups {
		if !bytes.Equal(a.groups[i].body, b.groups[i].body) {
			return false
		}
	}
	return true
}

// TestCoveredUnionsOverlaps pins self-time accounting for concurrent
// child spans: overlapping intervals count once.
func TestCoveredUnionsOverlaps(t *testing.T) {
	got := covered([]span{{Start: 0, End: 10}, {Start: 5, End: 20}, {Start: 30, End: 40}})
	if got != 30 {
		t.Fatalf("covered = %d, want 30", got)
	}
}

// TestMetricsMatchBenchmarkJSON pins the printed metric names and units
// to the benchmark definition at the repository root.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics printed, %d defined", what, len(got), len(want))
		}
		for i, w := range want {
			if got[i].name != w.Name || got[i].unit != w.Unit {
				t.Errorf("%s %d: printed %s (%s), defined %s (%s)", what, i, got[i].name, got[i].unit, w.Name, w.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, def.EndToEnd)
	same("per_layer", perLayer, def.PerLayer)
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is defined but not implemented", w.Name)
		}
	}
	if len(def.Workloads) != len(workloads) {
		t.Errorf("%d workloads defined, %d implemented", len(def.Workloads), len(workloads))
	}
}
