package server

import (
	"math"
	"testing"
)

// FuzzParseIngestBody feeds arbitrary bodies to the ingest parser for
// every kind, as newline text and as JSON. Whatever the body, parsing
// must not panic, and an accepted body must yield aligned columns —
// weights exactly for weighted sketches, timestamps exactly for rollups
// — with every weight finite and positive, the precondition of both the
// WAL decoder and the weighted sketch update.
func FuzzParseIngestBody(f *testing.F) {
	for _, seed := range []string{
		"a\tNaN\n",
		"a\tInf\n",
		"a\t-1\n",
		"a\r\nb\t2\r\n",
		"\t5\n",
		"a\t3\nb\n\nc\t7\n",
		`{"items":["a","b"]}`,
		`{"rows":[{"item":"a","weight":2.5,"at":7},{"item":"b"}]}`,
		`{"items":["a"],"rows":[{"item":"b","weight":-1}]}`,
		`{"rows":[{"item":"a","weight":1e999}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, kind := range []Kind{KindUnit, KindWeighted, KindSharded, KindRollup} {
			for _, ct := range []string{"text/plain", "application/json"} {
				rows, err := ParseIngestBody(kind, ct, body)
				if err != nil {
					continue
				}
				n := len(rows.Items)
				wantWs, wantAts := 0, 0
				switch kind {
				case KindWeighted:
					wantWs = n
				case KindRollup:
					wantAts = n
				}
				if len(rows.Weights) != wantWs || len(rows.Ats) != wantAts {
					t.Fatalf("%s %s: %d items, %d weights, %d timestamps", kind, ct, n, len(rows.Weights), len(rows.Ats))
				}
				for i, w := range rows.Weights {
					if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
						t.Fatalf("%s %s: row %d accepted with weight %v", kind, ct, i, w)
					}
				}
			}
		}
	})
}
