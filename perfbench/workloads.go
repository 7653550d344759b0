package main

// The four workloads. Each sets its servers up setupRuns times, runs
// its load, then checks the served answers against the generator's
// exact truth (and, where the state is deterministic, a bit-for-bit
// in-process reference).

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	uss "repro"
)

const (
	sketchName = "bench"
	shards     = 8
	binsPer    = 1024 // per shard on the single node, per partial in the cluster

	poolBatches = 128  // distinct pre-rendered ingest batches per workload
	batchRows   = 2000 // rows per closed-loop and preload batch

	durablePreload = 64  // batches preloaded into the durable node
	memPreload     = 384 // batches preloaded into the in-memory node
	durableWriters = 2   // closed-loop writers on ingest-durable
	quiescentReads = 2   // closed-loop readers on read-quiescent

	// The open-loop writers. On read-under-write a batch lands every
	// 2 ms, more often than any snapshot read completes, so every top-k
	// and group-by meets a new version.
	rwEvery        = 2 * time.Millisecond
	rwBatchRows    = 100
	clusterEvery   = 10 * time.Millisecond
	clusterRows    = 250
	clusterPreload = 48 // 2000-row batches fanned in during set-up
	clusterNodes   = 3

	readSeqLen = 1 << 16
)

// sketchSeed derives the sketches' randomness seed from the run seed.
func (b *bench) sketchSeed() int64 { return b.seed*7919 + 1 }

func (b *bench) createBody(kind string) []byte {
	if kind == "sharded" {
		return []byte(fmt.Sprintf(`{"name":%q,"kind":"sharded","bins":%d,"shards":%d,"seed":%d}`, sketchName, binsPer, shards, b.sketchSeed()))
	}
	return []byte(fmt.Sprintf(`{"name":%q,"kind":"weighted","bins":%d,"seed":%d}`, sketchName, binsPer, b.sketchSeed()))
}

// preload posts batches through one sync writer, rotating over bases.
func (b *bench) preload(bases []string, batches []batch) error {
	for i, bt := range batches {
		if err := b.cl.ingest(bases[i%len(bases)], sketchName, bt); err != nil {
			return err
		}
	}
	return nil
}

// cycle returns n batches taken round-robin from pool.
func cycle(pool []batch, n int) []batch {
	out := make([]batch, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

func urls(nodes []*node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.url
	}
	return out
}

// writes tracks acknowledged batches of one pool.
type writes struct {
	pool  []batch
	acked []atomic.Int64
	sent  atomic.Int64
}

func newWrites(pool []batch) *writes {
	return &writes{pool: pool, acked: make([]atomic.Int64, len(pool))}
}

// post sends batch i (mod the pool) as a sync ingest and times its ack
// from start.
func (b *bench) post(w *writes, base string, i int, start time.Time) {
	w.sent.Add(1)
	bt := w.pool[i%len(w.pool)]
	err := b.cl.ingest(base, sketchName, bt)
	if err == nil {
		w.acked[i%len(w.pool)].Add(1)
	}
	b.timed("ack", start, err)
}

// addTo adds every acknowledged batch to truth.
func (w *writes) addTo(truth *exactTruth) {
	for i := range w.acked {
		truth.add(w.pool[i], w.acked[i].Load())
	}
}

// readLoad returns the load of clients closed-loop readers over the
// plan's sequence, each reader starting at its own offset and going on
// from slice to slice; check, when non-nil, judges every answer.
func (b *bench) readLoad(clients int, bases []string, qp *queryPlan, check func(readOp, []byte) error) func(from, until time.Time) {
	next := make([]int, clients)
	return func(_, until time.Time) {
		closedLoop(clients, until, func(c int) {
			i := next[c]
			next[c]++
			op := qp.seq[(c*len(qp.seq)/clients+i)%len(qp.seq)]
			t0 := time.Now()
			body, err := b.read(bases[i%len(bases)], qp, op)
			if err == nil && check != nil {
				err = check(op, body)
			}
			b.timed(opNames[op.class], t0, err)
		})
	}
}

// writeLoad returns the load of ingest-durable's closed-loop writers,
// posting the pool's batches in turn to base.
func (b *bench) writeLoad(w *writes, base string) func(from, until time.Time) {
	var next atomic.Int64
	return func(_, until time.Time) {
		closedLoop(durableWriters, until, func(int) {
			b.post(w, base, int(next.Add(1)-1), time.Now())
		})
	}
}

// ---- ingest-durable ----

func runIngestDurable(b *bench) error {
	pool := genBatches(b.seed, poolBatches, batchRows, false)
	pre := cycle(pool, durablePreload)
	qp := genQueryPlan(b.seed, sketchName, pool, readSeqLen)
	var n *node
	setupN := 0
	err := b.setup(func() (func() error, error) {
		setupN++
		nd, err := startNode(filepath.Join(b.dir, "data-"+strconv.Itoa(setupN)))
		if err != nil {
			return nil, err
		}
		n = nd
		if _, err := b.cl.post(n.url+"/v1/sketches", "application/json", b.createBody("sharded")); err != nil {
			return n.stop, err
		}
		return n.stop, b.preload([]string{n.url}, pre)
	})
	if err != nil {
		return err
	}
	defer n.stop()

	before, err := scrapeNodes(b.cl, []*node{n})
	if err != nil {
		return err
	}
	disk, err := openDiskRef(b.dir)
	if err != nil {
		return err
	}
	defer disk.close()
	w := newWrites(pool)
	p, err := b.measure(b.dur, warmup, disk, b.writeLoad(w, n.url))
	b.endMemory()
	if err != nil {
		return err
	}
	after, err := scrapeNodes(b.cl, []*node{n})
	if err != nil {
		return err
	}
	b.summarizeWrites(p, batchRows, true)
	truth := newExactTruth()
	for _, bt := range pre {
		truth.add(bt, 1)
	}
	w.addTo(truth)
	ackedRows := float64(truth.rows - int64(len(pre)*batchRows))
	b.extra["wal_bytes_per_row"] = delta(before, after, "ussd_wal_bytes_total") / ackedRows
	b.layer["store.wal_bytes_per_row"] = b.extra["wal_bytes_per_row"]
	b.layer["store.rows_per_fsync"] = ackedRows / delta(before, after, "ussd_wal_fsyncs_total")
	b.layer["store.fsync_p50_ms"] = 1000 * histQuantile(before, after, "ussd_wal_fsync_duration_seconds", 0.5)
	b.layer["server.shed_ratio"] = shedRatio(before, after, float64(w.sent.Load()))
	b.checkMass([]*node{n}, truth)
	b.e2e["sum_rel_err"] = b.sumRelErr([]*node{n}, qp, truth)

	// Nothing reads during the measured phase; the read metrics come
	// from a probe on the state the writers left: read-quiescent's two
	// closed-loop readers.
	if p, err = b.measure(b.dur/probeShare, probeWarmup, nil, b.readLoad(quiescentReads, []string{n.url}, qp, sane)); err != nil {
		return err
	}
	b.summarizeReads(p)

	if b.trace {
		return b.traceIngestDurable(pool, pre, qp)
	}
	return nil
}

// shedRatio is shed plus rejected ingest requests over batches sent.
func shedRatio(before, after scrape, batches float64) float64 {
	if batches == 0 {
		return 0
	}
	return (delta(before, after, "ussd_admission_shed_total") + delta(before, after, "ussd_ingest_rejected_total")) / batches
}

// ---- read-quiescent and read-under-write ----

// memNode sets up the in-memory single node both read workloads use:
// a sharded sketch preloaded by one sync writer, so its state is a
// function of the seed alone.
func (b *bench) memNode(pre []batch) (*node, error) {
	var n *node
	err := b.setup(func() (func() error, error) {
		nd, err := startNode("")
		if err != nil {
			return nil, err
		}
		n = nd
		if _, err := b.cl.post(n.url+"/v1/sketches", "application/json", b.createBody("sharded")); err != nil {
			return n.stop, err
		}
		return n.stop, b.preload([]string{n.url}, pre)
	})
	return n, err
}

func runReadQuiescent(b *bench) error {
	pool := genBatches(b.seed, poolBatches, batchRows, false)
	pre := cycle(pool, memPreload)
	qp := genQueryPlan(b.seed, sketchName, pool, readSeqLen)
	ref := newReference(b.sketchSeed(), pre, qp)
	n, err := b.memNode(pre)
	if err != nil {
		return err
	}
	defer n.stop()

	before, err := scrapeNodes(b.cl, []*node{n})
	if err != nil {
		return err
	}
	p, err := b.measure(b.dur, warmup, nil, b.readLoad(quiescentReads, []string{n.url}, qp, ref.verify))
	b.endMemory()
	if err != nil {
		return err
	}
	b.summarizeReads(p)
	after, err := scrapeNodes(b.cl, []*node{n})
	if err != nil {
		return err
	}
	b.layer["server.shed_ratio"] = shedRatio(before, after, 0)

	// Nothing writes during the measured phase; the ingest metrics come
	// from a probe after it: ingest-durable's two closed-loop writers on
	// this in-memory node, so the pair of workloads isolates what the
	// store costs an ack.
	w := newWrites(pool)
	if p, err = b.measure(b.dur/probeShare, probeWarmup, nil, b.writeLoad(w, n.url)); err != nil {
		return err
	}
	b.summarizeWrites(p, batchRows, true)

	truth := newExactTruth()
	for _, bt := range pre {
		truth.add(bt, 1)
	}
	w.addTo(truth)
	b.checkMass([]*node{n}, truth)
	b.e2e["sum_rel_err"] = b.sumRelErr([]*node{n}, qp, truth)

	if b.trace {
		return b.traceReads(pre, qp)
	}
	return nil
}

func runReadUnderWrite(b *bench) error {
	pool := genBatches(b.seed, poolBatches, batchRows, false)
	pre := cycle(pool, memPreload)
	wpool := genBatches(b.seed+1, poolBatches, rwBatchRows, false)
	qp := genQueryPlan(b.seed, sketchName, pool, readSeqLen)
	n, err := b.memNode(pre)
	if err != nil {
		return err
	}
	defer n.stop()
	before, err := scrapeNodes(b.cl, []*node{n})
	if err != nil {
		return err
	}
	w := newWrites(wpool)
	var sched openLoopStats
	p, err := b.measure(b.dur, warmup, nil, b.underWrites(rwEvery, w, []string{n.url}, b.readLoad(1, []string{n.url}, qp, sane), &sched))
	b.endMemory()
	if err != nil {
		return err
	}
	if err := b.checkSchedule(sched); err != nil {
		return err
	}
	after, err := scrapeNodes(b.cl, []*node{n})
	if err != nil {
		return err
	}
	b.summarizeWrites(p, rwBatchRows, false)
	b.summarizeReads(p)
	b.layer["server.shed_ratio"] = shedRatio(before, after, float64(w.sent.Load()))

	truth := newExactTruth()
	for _, bt := range pre {
		truth.add(bt, 1)
	}
	w.addTo(truth)
	b.checkMass([]*node{n}, truth)
	b.e2e["sum_rel_err"] = b.sumRelErr([]*node{n}, qp, truth)
	if b.trace {
		return b.traceReadUnderWrite(pre, wpool, qp)
	}
	return nil
}

// underWrites returns the load of reads beside an open-loop writer
// that posts a batch every interval, rotating over bases and going on
// through the pool from slice to slice; the writer's schedule adds to
// sched.
func (b *bench) underWrites(every time.Duration, w *writes, bases []string, reads func(from, until time.Time), sched *openLoopStats) func(from, until time.Time) {
	return func(from, until time.Time) {
		var st openLoopStats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			st = openLoop(sched.sent, from, until, every, func(i int, due time.Time) {
				b.post(w, bases[i%len(bases)], i, due)
			})
		}()
		reads(from, until)
		wg.Wait()
		sched.add(st)
	}
}

// ---- cluster-rw ----

func runClusterRW(b *bench) error {
	pool := genBatches(b.seed, poolBatches, batchRows, true)
	pre := cycle(pool, clusterPreload)
	wpool := genBatches(b.seed+1, poolBatches, clusterRows, true)
	qp := genQueryPlan(b.seed, sketchName, pre, readSeqLen)
	var nodes []*node
	err := b.setup(func() (func() error, error) {
		ns, err := startCluster(clusterNodes)
		if err != nil {
			return nil, err
		}
		nodes = ns
		teardown := func() error { return stopAll(ns) }
		if _, err := b.cl.post(ns[0].url+"/v1/sketches", "application/json", b.createBody("weighted")); err != nil {
			return teardown, err
		}
		return teardown, b.preload(urls(ns), pre)
	})
	if err != nil {
		return err
	}
	defer stopAll(nodes)

	before, err := scrapeNodes(b.cl, nodes)
	if err != nil {
		return err
	}
	w := newWrites(wpool)
	var gathers atomic.Int64
	var sched openLoopStats
	reads := b.readLoad(1, urls(nodes), qp, func(op readOp, body []byte) error {
		gathers.Add(1)
		if err := sane(op, body); err != nil {
			return err
		}
		return notDegraded(body)
	})
	p, err := b.measure(b.dur, warmup, nil, b.underWrites(clusterEvery, w, urls(nodes), reads, &sched))
	b.endMemory()
	if err != nil {
		return err
	}
	if err := b.checkSchedule(sched); err != nil {
		return err
	}
	after, err := scrapeNodes(b.cl, nodes)
	if err != nil {
		return err
	}
	b.summarizeWrites(p, clusterRows, false)
	b.summarizeReads(p)
	b.layer["server.shed_ratio"] = shedRatio(before, after, float64(w.sent.Load()))
	if g := float64(gathers.Load()); g > 0 {
		b.layer["cluster.hedge_ratio"] = delta(before, after, "ussd_cluster_hedges_total") / g
		b.layer["cluster.degraded_ratio"] = delta(before, after, "ussd_cluster_degraded_reads_total") / g
	}

	truth := newExactTruth()
	for _, bt := range pre {
		truth.add(bt, 1)
	}
	w.addTo(truth)
	b.checkMass(nodes, truth)
	b.checkClusterTopK(nodes, qp)
	b.e2e["sum_rel_err"] = b.sumRelErr(nodes, qp, truth)
	if b.trace {
		return b.traceCluster(wpool, qp, nodes)
	}
	return nil
}

// ---- shared read helpers ----

// read issues one read op against base.
func (b *bench) read(base string, qp *queryPlan, op readOp) ([]byte, error) {
	switch op.class {
	case opTopK:
		return b.cl.get(base + qp.topKPath[op.idx])
	case opSum:
		return b.cl.get(base + qp.sumPath[op.idx])
	case opGroupBy:
		return b.cl.post(base+qp.groupPath, "application/json", qp.groups[op.idx].body)
	default:
		return b.cl.get(base + qp.estPath[op.idx])
	}
}

// notDegraded fails a cluster answer that carries the degraded marker.
func notDegraded(body []byte) error {
	var v struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return err
	}
	if v.Degraded {
		return fmt.Errorf("cluster read answered degraded with every node up")
	}
	return nil
}

// sumRelErr is the mean absolute relative error of served /sum values
// against the exact sums, over every predicate of the plan, read from
// the nodes in turn.
func (b *bench) sumRelErr(nodes []*node, qp *queryPlan, truth *exactTruth) float64 {
	var total float64
	var n int
	for i, p := range qp.sums {
		body, err := b.cl.get(nodes[i%len(nodes)].url + qp.sumPath[i])
		var got sumDTO
		if err == nil {
			err = json.Unmarshal(body, &got)
		}
		b.check(err)
		exact := truth.sum(p)
		if err != nil || exact <= 0 {
			continue
		}
		rel := (got.Value - exact) / exact
		if rel < 0 {
			rel = -rel
		}
		total += rel
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// checkMass checks mass conservation: the served row count and total
// equal the acknowledged rows and their weight.
func (b *bench) checkMass(nodes []*node, truth *exactTruth) {
	for _, nd := range nodes {
		var info struct {
			Rows  int64   `json:"rows"`
			Total float64 `json:"total"`
		}
		err := b.cl.getJSON(nd.url+"/v1/sketches/"+sketchName, &info)
		if err == nil && (info.Rows != truth.rows || info.Total != truth.total) {
			err = fmt.Errorf("mass conservation: served rows %d total %v, acked rows %d total %v",
				info.Rows, info.Total, truth.rows, truth.total)
		}
		b.check(err)
	}
}

// checkClusterTopK checks that every entry node's top-k is the exact
// union of the owner partials, fetched separately, and not degraded.
func (b *bench) checkClusterTopK(nodes []*node, qp *queryPlan) {
	var lists [][]uss.Bin
	for _, nd := range nodes {
		blob, err := b.cl.get(nd.url + "/v1/cluster/state/" + sketchName + "?format=bins")
		if err != nil {
			b.check(err)
			return
		}
		bins, err := uss.DecodeBins(blob)
		if err != nil {
			b.check(err)
			return
		}
		lists = append(lists, bins)
	}
	union := exactUnion(lists)
	for i, k := range qp.topK {
		want := union
		if k < len(want) {
			want = want[:k]
		}
		for _, nd := range nodes {
			body, err := b.cl.get(nd.url + qp.topKPath[i])
			if err == nil {
				err = notDegraded(body)
			}
			if err == nil {
				err = sameTopK(body, want)
			}
			b.check(err)
		}
	}
}
