package cluster

// The end-to-end tracing contract: one client request against a
// 3-node cluster produces spans on every owner node sharing the root
// trace ID, retrievable by ID from each node's /debug/traces ring, and
// a forced hedge leaves its losing owner-fetch span recorded as
// "cancelled" — observable, not leaked.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
)

// spanRow is the slice of the /debug/traces span JSON this test reads.
type spanRow struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Status string `json:"status"`
}

// tracesOf fetches one node's span ring filtered by trace ID.
func (tc *testCluster) tracesOf(node int, traceID string) []spanRow {
	tc.t.Helper()
	code, b := tc.get(node, "/debug/traces?trace="+traceID)
	if code != http.StatusOK {
		tc.t.Fatalf("GET /debug/traces on node %d: status %d: %s", node, code, b)
	}
	var page struct {
		Spans []spanRow `json:"spans"`
	}
	if err := json.Unmarshal(b, &page); err != nil {
		tc.t.Fatalf("decode traces: %v: %s", err, b)
	}
	return page.Spans
}

func TestClusterTracePropagationAndHedgeLoser(t *testing.T) {
	tc := newTestCluster(t, 3, func(c *Config) {
		c.ReplicationFactor = 3
		c.ReadQuorum = 2
	})
	tc.create(0, server.SketchConfig{Name: "tr", Kind: server.KindWeighted, Bins: 128, Seed: 9})
	tc.ingestWeighted("tr", 200)
	// Seed every node's anti-entropy copies so hedges have a source.
	for _, ag := range tc.agents {
		ag.AntiEntropyRound(context.Background())
	}

	// Delay every remote owner-state read past HedgeDelay (20ms in this
	// harness): each remote owner fetch hedges to the local copy, the
	// copy wins, and the in-flight owner fetch is cancelled.
	if err := faultinject.Enable("cluster.slow-peer"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Reset)

	const traceID = "5a1ad001dead10ad5a1ad001dead10ad"
	req, err := http.NewRequest(http.MethodGet, tc.urls[0]+"/v1/sketches/tr/topk?k=10", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-USS-Trace", traceID+"-00f067aa0ba902b7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged topk: status %d", resp.StatusCode)
	}
	if tc.agents[0].met.hedges.Load() == 0 {
		t.Fatal("slow-peer faultpoint did not force a hedge")
	}

	// Loser spans finish after the winner returns (the remote handler
	// sleeps 250ms before noticing the cancel), so poll each node's ring.
	// Node 0 coordinated the gather; nodes 1 and 2 served (delayed)
	// owner-state reads under the same propagated trace ID.
	deadline := time.Now().Add(5 * time.Second)
	waitFor := func(node int, cond func([]spanRow) bool, desc string) {
		t.Helper()
		for {
			spans := tc.tracesOf(node, traceID)
			for _, sp := range spans {
				if sp.Trace != traceID {
					t.Fatalf("node %d returned span from wrong trace: %+v", node, sp)
				}
			}
			if cond(spans) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d: %s never appeared for trace %s (have %+v)", node, desc, traceID, spans)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	hasName := func(name string) func([]spanRow) bool {
		return func(spans []spanRow) bool {
			for _, sp := range spans {
				if sp.Name == name {
					return true
				}
			}
			return false
		}
	}
	waitFor(0, hasName("cluster.gather"), "cluster.gather span")
	waitFor(1, func(s []spanRow) bool { return len(s) > 0 }, "any span")
	waitFor(2, func(s []spanRow) bool { return len(s) > 0 }, "any span")

	// The hedge losers: cancelled owner fetches on the coordinating
	// node, visible in the ring rather than leaked.
	for {
		var cancelled, hedges int
		for _, sp := range tc.tracesOf(0, traceID) {
			if sp.Name == "cluster.fetch-owner" && sp.Status == "cancelled" {
				cancelled++
			}
			if sp.Name == "cluster.hedge-copy" {
				hedges++
			}
		}
		if cancelled >= 1 && hedges >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cancelled fetch-owner + hedge-copy spans on node 0: %s",
				fmt.Sprintf("%+v", tc.tracesOf(0, traceID)))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
