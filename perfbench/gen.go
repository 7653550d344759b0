package main

// The seeded input generator. Everything the servers see — ingest
// bodies, read URLs and query bodies — is rendered here from the
// --seed argument before any timing starts, so one seed always yields
// byte-identical inputs.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
)

const (
	// adUniverse is the ad-id range. With 12 countries the item universe
	// is about 12M labels, far above any sketch's bin budget here, so
	// Unbiased Space Saving's randomized replacement runs on every batch.
	adUniverse = 1 << 20
	// zipfS is the skew of both the ad and the country draws.
	zipfS = 1.2
)

var countries = []string{"us", "de", "jp", "br", "in", "fr", "gb", "ca", "mx", "kr", "it", "es"}

// batch is one pre-rendered ingest body and its parsed columns.
type batch struct {
	body    []byte
	items   []string
	weights []float64 // nil for unit-weight rows
}

// rowGen draws Zipf(1.2) `country=..|ad=..` labels.
type rowGen struct {
	rng     *rand.Rand
	ad      *rand.Zipf
	country *rand.Zipf
}

func newRowGen(seed int64) *rowGen {
	rng := rand.New(rand.NewSource(seed))
	return &rowGen{
		rng:     rng,
		ad:      rand.NewZipf(rng, zipfS, 1, adUniverse-1),
		country: rand.NewZipf(rng, zipfS, 1, uint64(len(countries)-1)),
	}
}

func (g *rowGen) label() string {
	return "country=" + countries[g.country.Uint64()] + "|ad=ad-" + strconv.FormatUint(g.ad.Uint64(), 10)
}

// genBatches renders n batches of rows each. Weighted batches carry an
// integer weight in 1..5 per row (tab-separated, the text wire format).
func genBatches(seed int64, n, rows int, weighted bool) []batch {
	g := newRowGen(seed)
	out := make([]batch, n)
	for b := range out {
		var buf bytes.Buffer
		bt := batch{items: make([]string, rows)}
		if weighted {
			bt.weights = make([]float64, rows)
		}
		for i := 0; i < rows; i++ {
			it := g.label()
			bt.items[i] = it
			buf.WriteString(it)
			if weighted {
				w := 1 + g.rng.Intn(5)
				bt.weights[i] = float64(w)
				buf.WriteByte('\t')
				buf.WriteString(strconv.Itoa(w))
			}
			buf.WriteByte('\n')
		}
		bt.body = buf.Bytes()
		out[b] = bt
	}
	return out
}

// Operation classes of the read mix.
const (
	opTopK = iota
	opSum
	opGroupBy
	opEstimate
	numReadOps
)

var opNames = [numReadOps]string{"topk", "sum", "groupby", "estimate"}

// sumPred is one /sum predicate: exactly one of prefix, suffix or items.
type sumPred struct {
	kind  string // "prefix", "suffix" or "items"
	arg   string // the raw query parameter value
	items map[string]bool
}

func (p sumPred) match(label string) bool {
	switch p.kind {
	case "prefix":
		return strings.HasPrefix(label, p.arg)
	case "suffix":
		return strings.HasSuffix(label, p.arg)
	default:
		return p.items[label]
	}
}

// groupQuery is one filtered group-by /query body.
type groupQuery struct {
	where   []string // accepted countries
	groupBy string
	body    []byte
}

// readOp is one entry of the read sequence: a class and an index into
// that class's query pool.
type readOp struct {
	class int
	idx   int
}

// queryPlan is the seeded read side of a workload: query pools per
// class and the order they are issued in.
type queryPlan struct {
	topK      []int
	sums      []sumPred
	groups    []groupQuery
	estimates []string
	seq       []readOp

	// Rendered request targets per pool entry.
	topKPath  []string
	sumPath   []string
	estPath   []string
	groupPath string
}

// genQueryPlan draws the query pools and a read sequence of seqLen ops.
// Item-set and estimate targets are drawn from rows of pool, so every
// predicate has positive exact mass once pool is ingested.
func genQueryPlan(seed int64, name string, pool []batch, seqLen int) *queryPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	sample := func() string {
		b := pool[rng.Intn(len(pool))]
		return b.items[rng.Intn(len(b.items))]
	}
	qp := &queryPlan{topK: []int{10, 100}}
	// Each country, and each country with each leading ad-id digit.
	for _, c := range countries {
		qp.sums = append(qp.sums, sumPred{kind: "prefix", arg: "country=" + c + "|"})
		for d := 0; d < 10; d++ {
			qp.sums = append(qp.sums, sumPred{kind: "prefix", arg: "country=" + c + "|ad=ad-" + strconv.Itoa(d)})
		}
	}
	// Every one- and two-digit suffix of the ad id: pseudo-random ad
	// subsets holding about 10% and 1% of the rows, whose sums mix
	// tracked heavy items with sampled tail items. Taking all of them,
	// not a seeded draw, keeps the mean error steady across seeds.
	for d := 0; d < 10; d++ {
		qp.sums = append(qp.sums, sumPred{kind: "suffix", arg: strconv.Itoa(d)})
	}
	for d := 0; d < 100; d++ {
		qp.sums = append(qp.sums, sumPred{kind: "suffix", arg: fmt.Sprintf("%02d", d)})
	}
	for i := 0; i < 12; i++ {
		set := map[string]bool{}
		for len(set) < 8 {
			set[sample()] = true
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		qp.sums = append(qp.sums, sumPred{kind: "items", arg: strings.Join(keys, ","), items: set})
	}
	for i := 0; i < 16; i++ {
		n := 2 + rng.Intn(3)
		perm := rng.Perm(len(countries))[:n]
		var where []string
		for _, j := range perm {
			where = append(where, countries[j])
		}
		sort.Strings(where)
		q := groupQuery{where: where, groupBy: "country"}
		q.body = []byte(fmt.Sprintf(`{"where":[{"dim":"country","in":%s}],"group_by":["country"]}`, jsonStrings(where)))
		qp.groups = append(qp.groups, q)
	}
	for i := 0; i < 32; i++ {
		qp.estimates = append(qp.estimates, sample())
	}
	base := "/v1/sketches/" + name
	for _, k := range qp.topK {
		qp.topKPath = append(qp.topKPath, base+"/topk?k="+strconv.Itoa(k))
	}
	for _, p := range qp.sums {
		qp.sumPath = append(qp.sumPath, base+"/sum?"+p.kind+"="+url.QueryEscape(p.arg))
	}
	for _, it := range qp.estimates {
		qp.estPath = append(qp.estPath, base+"/estimate?item="+url.QueryEscape(it))
	}
	qp.groupPath = base + "/query"
	// The four classes are drawn with equal weight: a chosen mix, not
	// one measured from real traffic.
	qp.seq = make([]readOp, seqLen)
	for i := range qp.seq {
		c := rng.Intn(numReadOps)
		qp.seq[i] = readOp{class: c, idx: rng.Intn(qp.poolLen(c))}
	}
	return qp
}

func (qp *queryPlan) poolLen(class int) int {
	switch class {
	case opTopK:
		return len(qp.topK)
	case opSum:
		return len(qp.sums)
	case opGroupBy:
		return len(qp.groups)
	default:
		return len(qp.estimates)
	}
}

func jsonStrings(ss []string) string {
	q := make([]string, len(ss))
	for i, s := range ss {
		q[i] = strconv.Quote(s)
	}
	return "[" + strings.Join(q, ",") + "]"
}

// exactTruth accumulates the exact per-item mass of acknowledged rows.
type exactTruth struct {
	mass  map[string]float64
	rows  int64
	total float64
}

func newExactTruth() *exactTruth { return &exactTruth{mass: map[string]float64{}} }

// add counts b as acknowledged times times.
func (t *exactTruth) add(b batch, times int64) {
	if times == 0 {
		return
	}
	for i, it := range b.items {
		w := 1.0
		if b.weights != nil {
			w = b.weights[i]
		}
		t.mass[it] += w * float64(times)
		t.total += w * float64(times)
	}
	t.rows += int64(len(b.items)) * times
}

// sum is the exact subset sum of p.
func (t *exactTruth) sum(p sumPred) float64 {
	if p.kind == "items" {
		var s float64
		for it := range p.items {
			s += t.mass[it]
		}
		return s
	}
	var s float64
	for it, w := range t.mass {
		if p.match(it) {
			s += w
		}
	}
	return s
}
