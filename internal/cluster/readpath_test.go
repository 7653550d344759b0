package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	uss "repro"
	"repro/internal/apitest"
	"repro/internal/server"
)

// The cross-mode read contract: a cluster read answers exactly what one
// node holding the whole stream answers. The oracle node is loaded by
// pushing the cluster's own GET /snapshot into a weighted sketch sized
// to hold it, so both sides see the same exact union.

// rf3 is the contract clusters' config: every node owns every sketch.
func rf3(c *Config) {
	c.ReplicationFactor = 3
	c.ReadQuorum = 2
}

// ingestLabels sync-ingests the given number of rows over distinct
// labelled items (country=..|ad=..), spreading batches across entry
// nodes. Rows of a weighted sketch carry weights 1..5; other kinds take
// bare items.
func (tc *testCluster) ingestLabels(name string, kind server.Kind, rows, distinct int) {
	tc.t.Helper()
	countries := []string{"us", "de", "fr", "jp"}
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		d := i % distinct
		fmt.Fprintf(&sb, "country=%s|ad=%d", countries[d%len(countries)], d)
		if kind == server.KindWeighted {
			fmt.Fprintf(&sb, "\t%d", 1+i%5)
		}
		sb.WriteByte('\n')
		if (i+1)%40 == 0 || i == rows-1 {
			code, b := tc.post(i%len(tc.urls), "/v1/sketches/"+name+"/ingest?sync=1", "text/plain", sb.String())
			if code != http.StatusOK {
				tc.t.Fatalf("ingest: status %d: %s", code, b)
			}
			sb.Reset()
		}
	}
}

// oracleNode boots a single server whose weighted sketch name holds the
// cluster's GET /snapshot, at capacity exactly the snapshot's bin count.
func oracleNode(t *testing.T, tc *testCluster, name string) string {
	t.Helper()
	code, blob := tc.get(0, "/v1/sketches/"+name+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("cluster snapshot: status %d: %s", code, blob)
	}
	bins, err := uss.DecodeBins(blob)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	if err := srv.CreateSketch(server.SketchConfig{Name: name, Kind: server.KindWeighted, Bins: max(len(bins), 1)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sketches/"+name+"/snapshot", "application/octet-stream", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oracle push: status %d", resp.StatusCode)
	}
	return ts.URL
}

// doJSON sends one read and decodes its JSON object answer.
func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, m
}

// readCase is one contract read: its path under the sketch, an optional
// query body, and the fields compared elsewhere (their presence is still
// part of the contract).
type readCase struct {
	path, body string
	skip       []string
}

func contractCases(top string) []readCase {
	return []readCase{
		{path: "topk?k=5"},
		{path: "topk?k=1000"},
		{path: "topk"},
		{path: "estimate?item=" + top},
		{path: "estimate?item=absent"},
		{path: "sum?prefix=country=us", skip: []string{"std_err", "ci95"}},
		{path: "sum?suffix=ad=3", skip: []string{"std_err", "ci95"}},
		{path: "sum?items=" + top + ",absent", skip: []string{"std_err", "ci95"}},
		{path: "query", body: `{"where":[{"dim":"country","in":["us","de"]}],"group_by":["ad"]}`},
		{path: "query", body: `{"group_by":["country"]}`},
		{path: "query", body: `{}`},
	}
}

// checkContract compares every node's cluster answer with the oracle's:
// the cluster's field set is the node's plus degraded, and every value
// outside rc.skip matches bit for bit.
func checkContract(t *testing.T, tc *testCluster, oracle, name string, rc readCase) {
	t.Helper()
	method := http.MethodGet
	if rc.body != "" {
		method = http.MethodPost
	}
	ocode, want := doJSON(t, method, oracle+"/v1/sketches/"+name+"/"+rc.path, rc.body)
	if ocode != http.StatusOK {
		t.Fatalf("oracle %s: status %d: %v", rc.path, ocode, want)
	}
	for node, u := range tc.urls {
		code, got := doJSON(t, method, u+"/v1/sketches/"+name+"/"+rc.path, rc.body)
		if code != http.StatusOK {
			t.Fatalf("node %d %s: status %d: %v", node, rc.path, code, got)
		}
		if got["degraded"] != false {
			t.Fatalf("node %d %s: degraded = %v, want false", node, rc.path, got["degraded"])
		}
		if _, ok := got["peers"]; ok {
			t.Errorf("node %d %s: non-degraded answer carries peers", node, rc.path)
		}
		delete(got, "degraded")
		if !reflect.DeepEqual(fieldSet(got), fieldSet(want)) {
			t.Errorf("node %d %s: cluster fields %v, node fields %v", node, rc.path, fieldSet(got), fieldSet(want))
		}
		w := clone(want)
		for _, f := range rc.skip {
			delete(got, f)
			delete(w, f)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("node %d %s:\ncluster %v\nnode    %v", node, rc.path, got, w)
		}
	}
}

// fieldSet lists an answer's fields, descending into query groups.
func fieldSet(m map[string]any) []string {
	var out []string
	for k, v := range m {
		out = append(out, k)
		if groups, ok := v.([]any); ok && k == "groups" {
			for _, g := range groups {
				for gk := range g.(map[string]any) {
					out = append(out, "groups."+gk)
				}
			}
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

func clone(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// topItem returns the oracle's heaviest item.
func topItem(t *testing.T, oracle, name string) string {
	t.Helper()
	_, m := doJSON(t, http.MethodGet, oracle+"/v1/sketches/"+name+"/topk?k=1", "")
	items := m["items"].([]any)
	return items[0].(map[string]any)["item"].(string)
}

// TestCrossModeReadContract runs every flat read against the cluster and
// against the oracle node, unsaturated and saturated.
func TestCrossModeReadContract(t *testing.T) {
	for _, sc := range []struct {
		name           string
		bins, distinct int
	}{
		{"unsaturated", 512, 40},
		{"saturated", 8, 300},
	} {
		t.Run(sc.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, rf3)
			tc.create(0, server.SketchConfig{Name: "c", Kind: server.KindWeighted, Bins: sc.bins, Seed: 9})
			tc.ingestLabels("c", server.KindWeighted, 900, sc.distinct)
			oracle := oracleNode(t, tc, "c")
			for _, rc := range contractCases(topItem(t, oracle, "c")) {
				checkContract(t, tc, oracle, "c", rc)
			}
		})
	}
}

// TestClusterSumStdErrIsOwnerRSS checks the cluster sum's error rule:
// std_err is the root-sum-square of the owners' own local answers, and
// value is their sum — both when no owner evicted anything and when
// every owner is saturated.
func TestClusterSumStdErrIsOwnerRSS(t *testing.T) {
	// A sharded owner's partial reaches the cluster as its shards
	// collapsed into one list. In "sharded partly saturated" each owner
	// holds 18 to 27 of the 72 items, under Shards·Bins = 32, so no
	// owner's list fills, yet two owners each have a shard of 9 or 10
	// items that has evicted.
	for _, sc := range []struct {
		name                   string
		kind                   server.Kind
		shards, bins, distinct int
		saturated              bool
	}{
		{"unsaturated", server.KindWeighted, 0, 512, 40, false},
		{"saturated", server.KindWeighted, 0, 8, 300, true},
		{"sharded unsaturated", server.KindSharded, 4, 64, 40, false},
		{"sharded partly saturated", server.KindSharded, 4, 8, 72, true},
		{"sharded saturated", server.KindSharded, 4, 8, 300, true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, rf3)
			tc.create(0, server.SketchConfig{Name: "s", Kind: sc.kind, Shards: sc.shards, Bins: sc.bins, Seed: 11})
			tc.ingestLabels("s", sc.kind, 900, sc.distinct)
			owners := tc.agents[0].owners("s")
			for _, q := range []string{"prefix=country=us", "suffix=ad=3", "items=country=de|ad=1,country=jp|ad=3"} {
				var value, variance float64
				for _, o := range owners {
					code, m := doJSON(t, http.MethodGet, o+"/v1/cluster/sketches/s/sum?"+q, "")
					if code != http.StatusOK {
						t.Fatalf("owner %s sum?%s: status %d: %v", o, q, code, m)
					}
					value += m["value"].(float64)
					se := m["std_err"].(float64)
					variance += se * se
				}
				want := math.Sqrt(variance)
				if sc.saturated && want == 0 {
					t.Fatalf("sum?%s: saturated owners report no error", q)
				}
				for node, u := range tc.urls {
					code, m := doJSON(t, http.MethodGet, u+"/v1/sketches/s/sum?"+q, "")
					if code != http.StatusOK {
						t.Fatalf("node %d sum?%s: status %d: %v", node, q, code, m)
					}
					if got := m["value"].(float64); got != value {
						t.Errorf("node %d sum?%s: value %v, owners sum to %v", node, q, got, value)
					}
					if got := m["std_err"].(float64); math.Abs(got-want) > 1e-9*math.Max(1, want) {
						t.Errorf("node %d sum?%s: std_err %v, owners' root-sum-square %v", node, q, got, want)
					}
				}
			}
		})
	}
}

// TestClusterSumExactHasNoSamplingError is the regression for a cluster
// sum that sized its union at its own size, looked saturated, and served
// a sampling error on an exact answer.
func TestClusterSumExactHasNoSamplingError(t *testing.T) {
	tc := newTestCluster(t, 3, rf3)
	tc.create(0, server.SketchConfig{Name: "e", Kind: server.KindWeighted, Bins: 64})
	if code, b := tc.post(1, "/v1/sketches/e/ingest?sync=1", "text/plain", "country=us|ad=1\t3\ncountry=de|ad=2\t5\n"); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, b)
	}
	for node, u := range tc.urls {
		code, m := doJSON(t, http.MethodGet, u+"/v1/sketches/e/sum?prefix=country=us", "")
		if code != http.StatusOK {
			t.Fatalf("node %d: status %d: %v", node, code, m)
		}
		ci := m["ci95"].([]any)
		if m["value"] != 3.0 || m["std_err"] != 0.0 || ci[0] != 3.0 || ci[1] != 3.0 {
			t.Errorf("node %d: sum %v, want value 3, std_err 0, ci95 [3, 3]", node, m)
		}
	}
}

// TestClusterReadErrorMapping holds every node's cluster reads to the
// single-node error table.
func TestClusterReadErrorMapping(t *testing.T) {
	tc := newTestCluster(t, 3, rf3)
	apitest.Fixtures(t, tc.urls[0])
	for node, u := range tc.urls {
		t.Run(fmt.Sprintf("node%d", node), func(t *testing.T) {
			apitest.Run(t, u, apitest.ReadCases())
		})
	}
}

// TestClusterRangeCallerErrors is the regression for range reads that
// fanned a bad request out, counted every owner's 400 as a miss, and
// answered 503.
func TestClusterRangeCallerErrors(t *testing.T) {
	tc := newTestCluster(t, 3, rf3)
	tc.create(0, server.SketchConfig{Name: "r", Kind: server.KindRollup, Bins: 16, WindowLength: 60})
	for _, q := range []string{
		"topk?from=x&to=1",
		"total?from=0&to=y",
		"topk?from=0&to=100&k=x",
		"sum?from=0&to=100",
		"sum?from=0&to=100&prefix=a&items=b",
	} {
		code, m := doJSON(t, http.MethodGet, tc.urls[1]+"/v1/sketches/r/range/"+q, "")
		if code != http.StatusBadRequest {
			t.Errorf("range/%s: status %d (%v), want 400", q, code, m)
		}
	}
}

// TestClusterRangeOwnerWithoutSketchIsMiss is the regression for range
// reads that took an owner's "no such sketch" 404 for an empty window
// and served a short total as healthy.
func TestClusterRangeOwnerWithoutSketchIsMiss(t *testing.T) {
	tc := newTestCluster(t, 3, rf3)
	tc.create(0, server.SketchConfig{Name: "r", Kind: server.KindRollup, Bins: 64, WindowLength: 60})
	var sb strings.Builder
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&sb, "row-%d\t%d\n", i, i)
	}
	if code, b := tc.post(0, "/v1/sketches/r/ingest?sync=1", "text/plain", sb.String()); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, b)
	}
	if _, m := doJSON(t, http.MethodGet, tc.urls[2]+"/v1/cluster/sketches/r/range/total?from=0&to=100", ""); m["total"] == 0.0 {
		t.Fatalf("node 2 holds no rows of the fixture; pick other item names")
	}
	if _, err := tc.srvs[2].DeleteSketch("r"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"total?from=0&to=100", "sum?from=0&to=100&prefix=row", "topk?from=0&to=100&k=3"} {
		code, m := doJSON(t, http.MethodGet, tc.urls[0]+"/v1/sketches/r/range/"+q, "")
		if code != http.StatusOK {
			t.Fatalf("range/%s: status %d: %v", q, code, m)
		}
		if m["degraded"] != true {
			t.Errorf("range/%s with an owner missing the sketch: %v, want degraded", q, m)
		}
	}
	code, m := doJSON(t, http.MethodGet, tc.urls[0]+"/v1/sketches/r/range/total?from=0&to=100", "")
	if code != http.StatusOK || m["total"].(float64) >= 15 {
		t.Errorf("range/total: status %d, %v; want a degraded total short of 15", code, m)
	}
}

// TestCrossModeRangeContract holds the cluster's range reads to one
// rollup node fed the same rows, with room enough that neither evicts.
func TestCrossModeRangeContract(t *testing.T) {
	cfg := server.SketchConfig{Name: "rr", Kind: server.KindRollup, Bins: 64, WindowLength: 60}
	tc := newTestCluster(t, 3, rf3)
	tc.create(0, cfg)
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	if err := srv.CreateSketch(cfg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i := 0; i < 90; i++ {
		fmt.Fprintf(&sb, "country=%s|ad=%d\t%d\n", []string{"us", "de", "fr"}[i%3], i%13, i)
	}
	if code, b := tc.post(1, "/v1/sketches/rr/ingest?sync=1", "text/plain", sb.String()); code != http.StatusOK {
		t.Fatalf("cluster ingest: status %d: %s", code, b)
	}
	resp, err := http.Post(ts.URL+"/v1/sketches/rr/ingest?sync=1", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, q := range []string{
		"range/topk?from=0&to=59&k=4",
		"range/topk?from=0&to=200&k=100",
		"range/sum?from=0&to=200&prefix=country=us",
		"range/sum?from=60&to=200&suffix=ad=3",
		"range/total?from=0&to=59",
	} {
		_, want := doJSON(t, http.MethodGet, ts.URL+"/v1/sketches/rr/"+q, "")
		for node, u := range tc.urls {
			code, got := doJSON(t, http.MethodGet, u+"/v1/sketches/rr/"+q, "")
			if code != http.StatusOK || got["degraded"] != false {
				t.Fatalf("node %d %s: status %d: %v", node, q, code, got)
			}
			delete(got, "degraded")
			if !reflect.DeepEqual(got, want) {
				t.Errorf("node %d %s:\ncluster %v\nnode    %v", node, q, got, want)
			}
		}
	}
}
