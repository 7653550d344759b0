package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"strconv"
	"strings"

	uss "repro"
)

// The read layer: one parser and one answer function per read, shared
// by a node's handlers and the cluster agent's. A node answers over its
// entry's sketch; a cluster answers over the union it gathered from the
// owners. The sketches merge exactly over disjoint substreams, so the
// two modes differ only in the source a read is evaluated over.

// ReadOp names a read endpoint: the four flat reads and the three
// rollup range reads.
type ReadOp string

// The read endpoints, named by their path under /v1/sketches/{name}/.
const (
	ReadTopK     ReadOp = "topk"
	ReadEstimate ReadOp = "estimate"
	ReadSum      ReadOp = "sum"
	ReadQuery    ReadOp = "query"
	RangeTopK    ReadOp = "range/topk"
	RangeSum     ReadOp = "range/sum"
	RangeTotal   ReadOp = "range/total"
)

// ranged reports whether op is a rollup range read.
func (op ReadOp) ranged() bool { return strings.HasPrefix(string(op), "range/") }

// flatSource is what a flat read evaluates over. *uss.Sketch,
// *uss.WeightedSketch and *uss.ShardedSketch satisfy it as they are; the
// cluster supplies its gathered union.
type flatSource interface {
	TopK(k int) []uss.Bin
	Estimate(item string) float64
	SubsetSum(pred func(string) bool) uss.Estimate
	QueryEngine() *uss.QueryEngine
}

// ReadRequest is one parsed read: the top-k k, the estimate item, the
// sum predicate, the query spec, and a range read's window bounds.
type ReadRequest struct {
	op       ReadOp
	from, to int64
	k        int
	item     string
	pred     func(string) bool
	spec     uss.QuerySpec
}

// ParseRead checks that a sketch of cfg's kind serves op and parses
// op's parameters from r, reading at most maxBody bytes of a query
// body. Its errors are the caller's: every read endpoint answers them
// 400.
func ParseRead(cfg SketchConfig, op ReadOp, r *http.Request, maxBody int64) (*ReadRequest, error) {
	if cfg.Kind == KindRollup && !op.ranged() {
		return nil, fmt.Errorf("sketch %q is a rollup; use /range endpoints", cfg.Name)
	}
	if cfg.Kind != KindRollup && op.ranged() {
		return nil, fmt.Errorf("sketch %q is %s; /range endpoints need a rollup", cfg.Name, cfg.Kind)
	}
	q := &ReadRequest{op: op}
	var err error
	if op.ranged() {
		if q.from, q.to, err = rangeParams(r); err != nil {
			return nil, err
		}
	}
	switch op {
	case ReadTopK, RangeTopK:
		q.k, err = intParam(r, "k", 10)
	case ReadEstimate:
		if q.item = r.URL.Query().Get("item"); q.item == "" {
			err = fmt.Errorf("missing item parameter")
		}
	case ReadSum, RangeSum:
		q.pred, err = sumPredicate(r)
	case ReadQuery:
		q.spec, err = decodeQuery(r, maxBody)
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Answer evaluates a flat read over src and renders its response body.
func (q *ReadRequest) Answer(src flatSource) (map[string]any, error) {
	return q.answer(src, func(spec uss.QuerySpec) *uss.PreparedQuery {
		return src.QueryEngine().Prepare(spec)
	})
}

// answer is Answer with the query's compiled form resolved by prepare —
// a node's per-entry prepared-query cache.
func (q *ReadRequest) answer(src flatSource, prepare func(uss.QuerySpec) *uss.PreparedQuery) (map[string]any, error) {
	switch q.op {
	case ReadTopK:
		return topKBody(src.TopK(q.k)), nil
	case ReadEstimate:
		return map[string]any{"item": q.item, "estimate": src.Estimate(q.item)}, nil
	case ReadSum:
		return estimateBody(src.SubsetSum(q.pred)), nil
	case ReadQuery:
		return queryBody(prepare(q.spec))
	}
	return nil, fmt.Errorf("%s is not a flat read", q.op)
}

// answerRange evaluates a range read over a rollup. covered is false
// when a range sum meets no retained window.
func (q *ReadRequest) answerRange(ru *uss.Rollup) (body map[string]any, covered bool) {
	switch q.op {
	case RangeTopK:
		return topKBody(ru.TopKRange(q.from, q.to, q.k)), true
	case RangeSum:
		est, covered := ru.SubsetSumRange(q.from, q.to, q.pred)
		return estimateBody(est), covered
	default:
		return map[string]any{"total": ru.TotalRange(q.from, q.to)}, true
	}
}

// noWindowMsg opens a range sum's answer when no retained window
// intersects the range.
const noWindowMsg = "no retained window intersects"

// NoWindow is a range sum's answer when no retained window intersects
// the range; it is the only 404 a range read gives for a sketch that
// exists.
func (q *ReadRequest) NoWindow() error {
	return fmt.Errorf("%s [%d, %d]", noWindowMsg, q.from, q.to)
}

// IsNoWindow reports whether an owner's answer to this range read, by
// status and body, is NoWindow: an empty partial of a sketch the owner
// hosts. Any other 404 means the owner does not host the sketch.
func (q *ReadRequest) IsNoWindow(status int, body []byte) bool {
	return q.op == RangeSum && status == http.StatusNotFound && strings.Contains(string(body), noWindowMsg)
}

// Combine folds several owners' answers to one range read — each a
// node's response body — into the answer over their union: top-k lists
// merge bin-wise and re-rank, sums add values with root-sum-square
// errors, totals add.
func (q *ReadRequest) Combine(bodies [][]byte) (map[string]any, error) {
	var lists [][]uss.Bin
	var est uss.Estimate
	var variance, total float64
	m := 0
	for _, b := range bodies {
		// One decode shape covers the three range answers; the fields
		// an op does not render stay zero.
		var resp struct {
			Items      []uss.Bin `json:"items"` // binDTO's fields, by name
			Value      float64   `json:"value"`
			StdErr     float64   `json:"std_err"`
			SampleBins int       `json:"sample_bins"`
			Total      float64   `json:"total"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return nil, err
		}
		lists = append(lists, resp.Items)
		m += len(resp.Items)
		est.Value += resp.Value
		variance += resp.StdErr * resp.StdErr
		est.SampleBins += resp.SampleBins
		total += resp.Total
	}
	switch q.op {
	case RangeTopK:
		var merged []uss.Bin
		if m > 0 {
			merged = uss.MergeBins(m, uss.Pairwise, lists...)
		}
		sk, err := uss.NewWeightedFromBins(max(len(merged), 1), merged)
		if err != nil {
			return nil, err
		}
		return topKBody(sk.TopK(q.k)), nil
	case RangeSum:
		est.StdErr = math.Sqrt(variance)
		return estimateBody(est), nil
	case RangeTotal:
		return map[string]any{"total": total}, nil
	}
	return nil, fmt.Errorf("%s is not a range read", q.op)
}

// binDTO is one (item, count) pair in JSON responses.
type binDTO struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}

// topKBody renders ranked bins as a top-k response.
func topKBody(bins []uss.Bin) map[string]any {
	out := make([]binDTO, len(bins))
	for i, b := range bins {
		out[i] = binDTO{Item: b.Item, Count: b.Count}
	}
	return map[string]any{"items": out}
}

// estimateBody renders a subset-sum estimate with its conservative 95%
// interval.
func estimateBody(e uss.Estimate) map[string]any {
	lo, hi := e.ConfidenceInterval(0.95)
	return map[string]any{"value": e.Value, "std_err": e.StdErr, "sample_bins": e.SampleBins, "ci95": [2]float64{lo, hi}}
}

// groupDTO is one result row of a template query.
type groupDTO struct {
	Key        map[string]string `json:"key,omitempty"`
	KeyString  string            `json:"key_string"`
	Value      float64           `json:"value"`
	StdErr     float64           `json:"std_err"`
	SampleBins int               `json:"sample_bins"`
}

// queryBody runs a prepared query and renders its groups. Prepared
// results are engine-owned and reused by the next run, so they are
// detached into DTOs, Key maps included, before the caller drops the
// lock guarding the engine.
func queryBody(p *uss.PreparedQuery) (map[string]any, error) {
	groups, skipped, err := p.Run()
	if err != nil {
		return nil, err
	}
	out := make([]groupDTO, len(groups))
	for i, g := range groups {
		out[i] = groupDTO{
			Key:        maps.Clone(g.Key),
			KeyString:  g.KeyString(),
			Value:      g.Sum.Value,
			StdErr:     g.Sum.StdErr,
			SampleBins: g.Sum.SampleBins,
		}
	}
	return map[string]any{"groups": out, "skipped": skipped}, nil
}

// intParam parses an integer query parameter with a default.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

// rangeParams parses from/to for the rollup range endpoints.
func rangeParams(r *http.Request) (from, to int64, err error) {
	q := r.URL.Query()
	from, err = strconv.ParseInt(q.Get("from"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad from=%q", q.Get("from"))
	}
	to, err = strconv.ParseInt(q.Get("to"), 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad to=%q", q.Get("to"))
	}
	return from, to, nil
}

// sumPredicate builds a label predicate from the prefix/suffix/items
// query parameters (exactly one must be given).
func sumPredicate(r *http.Request) (func(string) bool, error) {
	q := r.URL.Query()
	prefix, suffix, items := q.Get("prefix"), q.Get("suffix"), q.Get("items")
	given := 0
	for _, v := range []string{prefix, suffix, items} {
		if v != "" {
			given++
		}
	}
	if given != 1 {
		return nil, fmt.Errorf("give exactly one of prefix=, suffix= or items=")
	}
	switch {
	case prefix != "":
		return func(s string) bool { return strings.HasPrefix(s, prefix) }, nil
	case suffix != "":
		return func(s string) bool { return strings.HasSuffix(s, suffix) }, nil
	default:
		set := make(map[string]bool)
		for _, it := range strings.Split(items, ",") {
			set[it] = true
		}
		return func(s string) bool { return set[s] }, nil
	}
}

// queryRequest is the POST /query body: the §2 template.
type queryRequest struct {
	Where []struct {
		Dim string   `json:"dim"`
		In  []string `json:"in"`
	} `json:"where"`
	GroupBy []string `json:"group_by"`
}

// decodeQuery reads a POST /query body into a query spec.
func decodeQuery(r *http.Request, maxBody int64) (uss.QuerySpec, error) {
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBody)).Decode(&req); err != nil {
		return uss.QuerySpec{}, fmt.Errorf("decode query: %w", err)
	}
	spec := uss.QuerySpec{GroupBy: req.GroupBy}
	for _, f := range req.Where {
		spec.Where = append(spec.Where, uss.QueryFilter{Dim: f.Dim, In: f.In})
	}
	return spec, nil
}
