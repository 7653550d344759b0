// Package apitest holds the sketch API's HTTP error contract as one
// table, so a single node and a cluster agent are checked against the
// same cases: an unknown sketch is 404 on every endpoint, a duplicate
// create is 409, and a caller error is 400. The table is data plus a
// runner; it talks to a server only over HTTP, so any package's tests
// can point it at whatever serves the public API.
package apitest

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// Case is one request and the status it must answer.
type Case struct {
	Name   string
	Method string
	Path   string
	Body   string
	CType  string
	Want   int
	// Read marks the read endpoints' cases (topk, estimate, sum, query
	// and the /range reads), which a cluster agent answers through the
	// same read layer a node does.
	Read bool
}

// Fixtures creates the sketches the cases name: weighted "w", unit "u"
// and rollup "ru".
func Fixtures(t *testing.T, base string) {
	t.Helper()
	for _, cfg := range []string{
		`{"name":"w","kind":"weighted","bins":8}`,
		`{"name":"u","kind":"unit","bins":8}`,
		`{"name":"ru","kind":"rollup","bins":8,"window_length":60}`,
	} {
		resp, err := http.Post(base+"/v1/sketches", "application/json", strings.NewReader(cfg))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", cfg, resp.StatusCode)
		}
	}
}

// ErrorCases is the whole error table.
var ErrorCases = []Case{
	// Not-found: every {name} endpoint answers 404 for a missing sketch.
	{"info missing", "GET", "/v1/sketches/ghost", "", "", 404, false},
	{"delete missing", "DELETE", "/v1/sketches/ghost", "", "", 404, false},
	{"ingest missing", "POST", "/v1/sketches/ghost/ingest", "a\n", "text/plain", 404, false},
	{"push missing", "POST", "/v1/sketches/ghost/snapshot", "x", "application/octet-stream", 404, false},
	{"pull missing", "GET", "/v1/sketches/ghost/snapshot", "", "", 404, false},
	{"topk missing", "GET", "/v1/sketches/ghost/topk", "", "", 404, true},
	{"topk bad k missing", "GET", "/v1/sketches/ghost/topk?k=x", "", "", 404, true},
	{"estimate missing", "GET", "/v1/sketches/ghost/estimate?item=a", "", "", 404, true},
	{"sum missing", "GET", "/v1/sketches/ghost/sum?prefix=a", "", "", 404, true},
	{"query missing", "POST", "/v1/sketches/ghost/query", "{}", "application/json", 404, true},
	{"range topk missing", "GET", "/v1/sketches/ghost/range/topk?from=0&to=1", "", "", 404, true},
	{"range sum missing", "GET", "/v1/sketches/ghost/range/sum?from=0&to=1&prefix=a", "", "", 404, true},
	{"range total missing", "GET", "/v1/sketches/ghost/range/total?from=0&to=1", "", "", 404, true},

	// Conflict: only a duplicate name is 409.
	{"create duplicate", "POST", "/v1/sketches", `{"name":"w","kind":"weighted","bins":8}`, "application/json", 409, false},

	// Bad request: validation failures are the caller's error, 400.
	{"create no bins", "POST", "/v1/sketches", `{"name":"z","kind":"unit"}`, "application/json", 400, false},
	{"create bad kind", "POST", "/v1/sketches", `{"name":"z","kind":"bogus","bins":8}`, "application/json", 400, false},
	{"create bad json", "POST", "/v1/sketches", `{"name":`, "application/json", 400, false},
	{"ingest bad body", "POST", "/v1/sketches/w/ingest", `{"rows":[{"item":""}]}`, "application/json", 400, false},
	{"ingest NaN weight", "POST", "/v1/sketches/w/ingest", "a\tNaN\n", "text/plain", 400, false},
	{"ingest Inf weight", "POST", "/v1/sketches/w/ingest", "a\tInf\n", "text/plain", 400, false},
	{"push non-weighted", "POST", "/v1/sketches/u/snapshot", "x", "application/octet-stream", 400, false},
	{"push bad blob", "POST", "/v1/sketches/w/snapshot", "not a snapshot", "application/octet-stream", 400, false},
	{"pull rollup", "GET", "/v1/sketches/ru/snapshot", "", "", 400, false},
	{"topk on rollup", "GET", "/v1/sketches/ru/topk", "", "", 400, true},
	{"topk bad k", "GET", "/v1/sketches/w/topk?k=x", "", "", 400, true},
	{"estimate no item", "GET", "/v1/sketches/w/estimate", "", "", 400, true},
	{"estimate on rollup", "GET", "/v1/sketches/ru/estimate?item=a", "", "", 400, true},
	{"sum no predicate", "GET", "/v1/sketches/w/sum", "", "", 400, true},
	{"sum two predicates", "GET", "/v1/sketches/w/sum?prefix=a&suffix=b", "", "", 400, true},
	{"sum on rollup", "GET", "/v1/sketches/ru/sum?prefix=a", "", "", 400, true},
	{"query bad json", "POST", "/v1/sketches/w/query", `{"where":`, "application/json", 400, true},
	{"query on rollup", "POST", "/v1/sketches/ru/query", "{}", "application/json", 400, true},
	{"range on non-rollup", "GET", "/v1/sketches/w/range/topk?from=0&to=1", "", "", 400, true},
	{"range bad from", "GET", "/v1/sketches/ru/range/topk?from=x&to=1", "", "", 400, true},
	{"range bad to", "GET", "/v1/sketches/ru/range/total?from=0&to=y", "", "", 400, true},
	{"range topk bad k", "GET", "/v1/sketches/ru/range/topk?from=0&to=1&k=x", "", "", 400, true},
	{"range sum no predicate", "GET", "/v1/sketches/ru/range/sum?from=0&to=1", "", "", 400, true},
}

// ReadCases returns the read endpoints' cases.
func ReadCases() []Case {
	var out []Case
	for _, c := range ErrorCases {
		if c.Read {
			out = append(out, c)
		}
	}
	return out
}

// Run sends every case to base as a subtest and checks its status.
func Run(t *testing.T, base string, cases []Case) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			req, err := http.NewRequest(tc.Method, base+tc.Path, bytes.NewReader([]byte(tc.Body)))
			if err != nil {
				t.Fatal(err)
			}
			if tc.CType != "" {
				req.Header.Set("Content-Type", tc.CType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.Want {
				t.Errorf("%s %s: status %d, want %d", tc.Method, tc.Path, resp.StatusCode, tc.Want)
			}
		})
	}
}
