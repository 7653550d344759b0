package main

// Answer checks: a bit-for-bit in-process reference for the quiescent
// node, shape checks for answers read under writes, and the exact
// union oracle for cluster top-k.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	uss "repro"
)

// Response shapes, as the handlers render them.
type binDTO struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}

type topKDTO struct {
	Items []binDTO `json:"items"`
}

type sumDTO struct {
	Value      float64    `json:"value"`
	StdErr     float64    `json:"std_err"`
	SampleBins int        `json:"sample_bins"`
	CI95       [2]float64 `json:"ci95"`
}

type groupDTO struct {
	KeyString  string  `json:"key_string"`
	Value      float64 `json:"value"`
	StdErr     float64 `json:"std_err"`
	SampleBins int     `json:"sample_bins"`
}

type queryDTO struct {
	Groups  []groupDTO `json:"groups"`
	Skipped int        `json:"skipped"`
}

type estimateDTO struct {
	Estimate float64 `json:"estimate"`
}

// spec is the uss form of a plan's group-by query.
func (q groupQuery) spec() uss.QuerySpec {
	return uss.QuerySpec{
		Where:   []uss.QueryFilter{{Dim: "country", In: q.where}},
		GroupBy: []string{q.groupBy},
	}
}

// reference is an in-process sharded sketch fed the same batches in the
// same order as the served one, with the same seed, so every answer of
// the quiescent node must match it bit for bit.
type reference struct {
	sk *uss.ShardedSketch
	qp *queryPlan

	mu       sync.Mutex
	verified map[readOp][]byte // response bytes already matched
}

func newReference(seed int64, batches []batch, qp *queryPlan) *reference {
	sk := uss.NewSharded(shards, binsPer, uss.WithSeed(seed))
	for _, bt := range batches {
		sk.UpdateBatch(bt.items)
	}
	return &reference{sk: sk, qp: qp, verified: map[readOp][]byte{}}
}

// verify checks one served answer. The first answer to each query is
// decoded and compared field by field; later answers to the same query
// must repeat it byte for byte, since nothing writes.
func (r *reference) verify(op readOp, body []byte) error {
	r.mu.Lock()
	want, seen := r.verified[op]
	r.mu.Unlock()
	if seen {
		if !bytes.Equal(want, body) {
			return fmt.Errorf("%s #%d: answer changed on a quiescent sketch", opNames[op.class], op.idx)
		}
		return nil
	}
	if err := r.compare(op, body); err != nil {
		return fmt.Errorf("%s #%d: %w", opNames[op.class], op.idx, err)
	}
	r.mu.Lock()
	r.verified[op] = append([]byte(nil), body...)
	r.mu.Unlock()
	return nil
}

func (r *reference) compare(op readOp, body []byte) error {
	switch op.class {
	case opTopK:
		return sameTopK(body, r.sk.TopK(r.qp.topK[op.idx]))
	case opSum:
		var got sumDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		e := r.sk.SubsetSum(r.qp.sums[op.idx].match)
		lo, hi := e.ConfidenceInterval(0.95)
		want := sumDTO{Value: e.Value, StdErr: e.StdErr, SampleBins: e.SampleBins, CI95: [2]float64{lo, hi}}
		if got != want {
			return fmt.Errorf("served %+v, reference %+v", got, want)
		}
	case opGroupBy:
		var got queryDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		groups, skipped, err := r.sk.RunQuery(r.qp.groups[op.idx].spec())
		if err != nil {
			return err
		}
		if got.Skipped != skipped || len(got.Groups) != len(groups) {
			return fmt.Errorf("served %d groups (%d skipped), reference %d (%d skipped)", len(got.Groups), got.Skipped, len(groups), skipped)
		}
		for i, g := range groups {
			want := groupDTO{KeyString: g.KeyString(), Value: g.Sum.Value, StdErr: g.Sum.StdErr, SampleBins: g.Sum.SampleBins}
			if got.Groups[i] != want {
				return fmt.Errorf("group %d: served %+v, reference %+v", i, got.Groups[i], want)
			}
		}
	default:
		var got estimateDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if want := r.sk.Estimate(r.qp.estimates[op.idx]); got.Estimate != want {
			return fmt.Errorf("served %v, reference %v", got.Estimate, want)
		}
	}
	return nil
}

// sameTopK checks a served top-k against the wanted bins, exactly.
func sameTopK(body []byte, want []uss.Bin) error {
	var got topKDTO
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Items) != len(want) {
		return fmt.Errorf("top-k served %d items, want %d", len(got.Items), len(want))
	}
	for i, w := range want {
		if got.Items[i] != (binDTO{Item: w.Item, Count: w.Count}) {
			return fmt.Errorf("top-k rank %d: served %+v, want %+v", i, got.Items[i], w)
		}
	}
	return nil
}

// sane checks the shape of an answer read while writes run: it decodes,
// top-k counts are positive and in rank order, sums and estimates are
// non-negative, and a group-by answers some group.
func sane(op readOp, body []byte) error {
	switch op.class {
	case opTopK:
		var got topKDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Items) == 0 {
			return fmt.Errorf("top-k is empty")
		}
		for i, it := range got.Items {
			if it.Count <= 0 || (i > 0 && it.Count > got.Items[i-1].Count) {
				return fmt.Errorf("top-k rank %d out of order: %+v", i, it)
			}
		}
	case opSum:
		var got sumDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Value < 0 || got.StdErr < 0 {
			return fmt.Errorf("sum served %+v", got)
		}
	case opGroupBy:
		var got queryDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Groups) == 0 {
			return fmt.Errorf("group-by answered no groups")
		}
	default:
		var got estimateDTO
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Estimate < 0 {
			return fmt.Errorf("estimate served %v", got.Estimate)
		}
	}
	return nil
}

// exactUnion sums bin lists item-wise and ranks the result: count
// descending, ties by ascending item.
func exactUnion(lists [][]uss.Bin) []uss.Bin {
	sum := map[string]float64{}
	for _, l := range lists {
		for _, b := range l {
			sum[b.Item] += b.Count
		}
	}
	out := make([]uss.Bin, 0, len(sum))
	for it, c := range sum {
		out = append(out, uss.Bin{Item: it, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	return out
}
