package main

// The traced replay. Each workload's seeded inputs are pushed through
// the public functions its request path calls, in the order the
// handlers call them, with one root span per operation and one child
// span per layer call. The replay runs with and without spans, and the
// difference is the tracing overhead.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	uss "repro"
	"repro/internal/hashx"
	"repro/internal/server"
	"repro/internal/store"
)

const (
	replayIngest     = 200  // durable ingest batches
	replayReads      = 1000 // read ops on a quiescent sketch
	replayProbeReads = 400  // read ops after the durable ingest replay
	replayRW         = 100  // write + read pairs under writes
	replayClusterOps = 300  // cluster ops, one write per three reads
	kernelTime       = 100 * time.Millisecond
)

// Results of replayed calls land here so the compiler keeps the calls.
var (
	sinkBins   []uss.Bin
	sinkEst    uss.Estimate
	sinkFloat  float64
	sinkGroups []uss.QueryGroup
)

// replayPaired runs replay without spans and with b's tracer, twice
// each in the order off, on, on, off so that warm-up and drift weigh
// on both sides alike, and records the overhead.
func (b *bench) replayPaired(replay func(tr *tracer) error) error {
	var off, on time.Duration
	for _, traced := range []bool{false, true, true, false} {
		tr, sum := newTracer(false), &off
		if traced {
			tr, sum = b.tr, &on
		}
		t0 := time.Now()
		if err := replay(tr); err != nil {
			return err
		}
		*sum += time.Since(t0)
	}
	b.layer["driver.trace_overhead_pct"] = 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
	return nil
}

// shardedReads answers read ops in-process the way the single-node
// handlers do: TopK off the sharded sketch's snapshot cache, SubsetSum
// across the shards, and group-by through one engine's prepared queries.
// The first TopK and the first query after a write are named for the
// work they redo: the snapshot refill and the label re-index.
type shardedReads struct {
	sk         *uss.ShardedSketch
	qe         *uss.QueryEngine
	prep       map[int]*uss.PreparedQuery
	staleSnap  bool
	staleIndex bool
}

func newShardedReads(sk *uss.ShardedSketch) *shardedReads {
	return &shardedReads{sk: sk, qe: sk.QueryEngine(), prep: map[int]*uss.PreparedQuery{}}
}

func (p *shardedReads) wrote() { p.staleSnap, p.staleIndex = true, true }

func (p *shardedReads) read(tr *tracer, qp *queryPlan, op readOp) error {
	var err error
	tr.run(0, "op."+opNames[op.class], func(root int) {
		switch op.class {
		case opTopK:
			name := "sketch.topk"
			if p.staleSnap {
				name, p.staleSnap = "sketch.refill", false
			}
			tr.run(root, name, func(int) { sinkBins = p.sk.TopK(qp.topK[op.idx]) })
		case opSum:
			tr.run(root, "sketch.subset_sum", func(int) { sinkEst = p.sk.SubsetSum(qp.sums[op.idx].match) })
		case opGroupBy:
			pq := p.prep[op.idx]
			if pq == nil {
				pq = p.qe.Prepare(qp.groups[op.idx].spec())
				p.prep[op.idx] = pq
			}
			name := "query.run"
			if p.staleIndex {
				name, p.staleIndex = "query.index", false
			}
			tr.run(root, name, func(int) { sinkGroups, _, err = pq.Run() })
		default:
			tr.run(root, "sketch.estimate", func(int) { sinkFloat = p.sk.Estimate(qp.estimates[op.idx]) })
		}
	})
	return err
}

// preloaded builds the in-process twin of a preloaded single node.
func (b *bench) preloaded(pre []batch) *uss.ShardedSketch {
	sk := uss.NewSharded(shards, binsPer, uss.WithSeed(b.sketchSeed()))
	for _, bt := range pre {
		sk.UpdateBatch(bt.items)
	}
	return sk
}

// ingestOp replays one ingest batch: decode, then (durable) WAL append
// and the wait for the covering fsync, then the sketch apply.
func ingestOp(tr *tracer, sk *uss.ShardedSketch, st *store.Store, bt batch) error {
	var err error
	tr.run(0, "op.ingest", func(root int) {
		var rows server.IngestRows
		tr.run(root, "server.decode", func(int) { rows, err = server.ParseIngestBody(server.KindSharded, "text/plain", bt.body) })
		if err != nil {
			return
		}
		if st != nil {
			var lsn uint64
			tr.run(root, "store.append", func(int) { lsn, err = st.AppendIngest(sketchName, rows.Items, nil, nil) })
			if err != nil {
				return
			}
			tr.run(root, "store.wait_durable", func(int) { err = st.WaitDurable(context.Background(), lsn) })
			if err != nil {
				return
			}
		}
		tr.run(root, "sketch.apply", func(int) { sk.UpdateBatch(rows.Items) })
	})
	return err
}

func (b *bench) traceIngestDurable(pool, pre []batch, qp *queryPlan) error {
	run := 0
	var last *uss.ShardedSketch
	err := b.replayPaired(func(tr *tracer) error {
		run++
		dir := filepath.Join(b.dir, fmt.Sprintf("replay-%d", run))
		st, err := store.Open(storeOptions(dir))
		if err != nil {
			return err
		}
		defer st.Close()
		sk := b.preloaded(pre)
		for i := 0; i < replayIngest; i++ {
			if err := ingestOp(tr, sk, st, pool[i%len(pool)]); err != nil {
				return err
			}
		}
		rd := newShardedReads(sk)
		rd.wrote()
		for i := 0; i < replayProbeReads; i++ {
			if err := rd.read(tr, qp, qp.seq[i]); err != nil {
				return err
			}
		}
		last = sk
		return nil
	})
	if err != nil {
		return err
	}
	b.kernels(last.Snapshot(0).Bins())
	b.layerMetrics()
	return nil
}

func (b *bench) traceReads(pre []batch, qp *queryPlan) error {
	sk := b.preloaded(pre)
	rd := newShardedReads(sk)
	// Warm the snapshot cache and every prepared query, as the measured
	// HTTP run's first reads did.
	for i := range qp.groups {
		if err := rd.read(newTracer(false), qp, readOp{class: opGroupBy, idx: i}); err != nil {
			return err
		}
	}
	sinkBins = sk.TopK(1)
	err := b.replayPaired(func(tr *tracer) error {
		for i := 0; i < replayReads; i++ {
			if err := rd.read(tr, qp, qp.seq[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.kernels(sk.Snapshot(0).Bins())
	b.layerMetrics()
	return nil
}

func (b *bench) traceReadUnderWrite(pre, wpool []batch, qp *queryPlan) error {
	var last *uss.ShardedSketch
	err := b.replayPaired(func(tr *tracer) error {
		sk := b.preloaded(pre)
		rd := newShardedReads(sk)
		for i := 0; i < replayRW; i++ {
			if err := ingestOp(tr, sk, nil, wpool[i%len(wpool)]); err != nil {
				return err
			}
			rd.wrote()
			if err := rd.read(tr, qp, qp.seq[i]); err != nil {
				return err
			}
		}
		last = sk
		return nil
	})
	if err != nil {
		return err
	}
	b.kernels(last.Snapshot(0).Bins())
	b.layerMetrics()
	return nil
}

// clusterStatus is the part of /v1/cluster/status the replay needs.
type clusterStatus struct {
	Owners []string `json:"owners"`
}

func (b *bench) traceCluster(wpool []batch, qp *queryPlan, nodes []*node) error {
	var st clusterStatus
	if err := b.cl.getJSON(nodes[0].url+"/v1/cluster/status?name="+sketchName, &st); err != nil {
		return err
	}
	var lastLists [][]uss.Bin
	err := b.replayPaired(func(tr *tracer) error {
		for i := 0; i < replayClusterOps; i++ {
			entry := nodes[i%len(nodes)]
			if i%3 == 0 {
				if err := b.fanOp(tr, entry, wpool[(i/3)%len(wpool)]); err != nil {
					return err
				}
			}
			lists, err := b.gatherOp(tr, entry, st.Owners, qp, qp.seq[i])
			if err != nil {
				return err
			}
			lastLists = lists
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.kernels(exactUnion(lastLists))
	b.layerMetrics()
	return nil
}

// fanOp replays one cluster ingest. The fan has no public Go entry
// point, so the program's own path is timed over HTTP: a ?sync=1 ingest
// through entry, which decodes the batch, partitions it by item hash,
// re-encodes every part, queues it for its owner and waits for every
// owner's apply. The batch's decode is timed on its own first, under a
// separate root, so that cluster.fan_ack_ms can be reported as the fan
// path without it.
func (b *bench) fanOp(tr *tracer, entry *node, bt batch) error {
	var err error
	tr.run(0, "op.decode", func(root int) {
		tr.run(root, "server.decode", func(int) { _, err = server.ParseIngestBody(server.KindWeighted, "text/plain", bt.body) })
	})
	if err != nil {
		return err
	}
	tr.run(0, "op.ingest", func(root int) {
		tr.run(root, "cluster.fan_ack", func(int) { err = b.cl.ingest(entry.url, sketchName, bt) })
	})
	return err
}

// gatherOp replays one cluster read entered at entry: fetch every owner
// partial (the entry's own locally, the others over loopback, all in
// parallel), merge them exactly, materialize a weighted sketch and
// answer from it.
func (b *bench) gatherOp(tr *tracer, entry *node, owners []string, qp *queryPlan, op readOp) ([][]uss.Bin, error) {
	var lists [][]uss.Bin
	var err error
	tr.run(0, "op."+opNames[op.class], func(root int) {
		tr.run(root, "cluster.fetch", func(fetch int) {
			lists = make([][]uss.Bin, len(owners))
			errs := make([]error, len(owners))
			var wg sync.WaitGroup
			for i, o := range owners {
				wg.Add(1)
				go func(i int, o string) {
					defer wg.Done()
					if o == entry.url {
						cfg, _, blob, err := entry.srv.SketchState(sketchName)
						if err == nil {
							lists[i], err = server.StateBins(cfg, blob)
						}
						errs[i] = err
						return
					}
					var blob []byte
					tr.run(fetch, "cluster.fetch_owner", func(int) {
						blob, errs[i] = b.cl.get(o + "/v1/cluster/state/" + sketchName + "?format=bins")
					})
					if errs[i] != nil {
						return
					}
					tr.run(fetch, "wire.decode", func(int) { lists[i], errs[i] = uss.DecodeBins(blob) })
				}(i, o)
			}
			wg.Wait()
			for _, e := range errs {
				if e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			return
		}
		m := 0
		for _, l := range lists {
			m += len(l)
		}
		var merged []uss.Bin
		tr.run(root, "cluster.merge", func(int) { merged = uss.MergeBinsParallel(m, uss.Pairwise, lists...) })
		var sk *uss.WeightedSketch
		tr.run(root, "cluster.materialize", func(int) { sk, err = uss.NewWeightedFromBins(max(len(merged), 1), merged) })
		if err != nil {
			return
		}
		switch op.class {
		case opTopK:
			tr.run(root, "sketch.topk", func(int) { sinkBins = sk.TopK(qp.topK[op.idx]) })
		case opSum:
			tr.run(root, "sketch.subset_sum", func(int) { sinkEst = sk.SubsetSum(qp.sums[op.idx].match) })
		case opGroupBy:
			tr.run(root, "query.index", func(int) {
				sinkGroups, _, err = sk.QueryEngine().Prepare(qp.groups[op.idx].spec()).Run()
			})
		default:
			tr.run(root, "sketch.estimate", func(int) { sinkFloat = sk.Estimate(qp.estimates[op.idx]) })
		}
	})
	return lists, err
}

// kernels times the merge kernel on the workload's final state:
// MergeBinsParallel over refill-sized input (the state split into
// per-shard lists) and gather-sized input (split into per-owner
// partials).
func (b *bench) kernels(state []uss.Bin) {
	refill := make([][]uss.Bin, shards)
	gather := make([][]uss.Bin, clusterNodes)
	for _, bn := range state {
		r, g := hashx.Sum32a(bn.Item)%shards, hashx.Sum64a(bn.Item)%clusterNodes
		refill[r] = append(refill[r], bn)
		gather[g] = append(gather[g], bn)
	}
	var bins int
	var spent time.Duration
	for _, lists := range [][][]uss.Bin{refill, gather} {
		m := 0
		for _, l := range lists {
			m += len(l)
		}
		start := time.Now()
		for time.Since(start) < kernelTime {
			sinkBins = uss.MergeBinsParallel(m, uss.Pairwise, lists...)
			bins += m
		}
		spent += time.Since(start)
	}
	b.layer["merge.bins_per_s"] = float64(bins) / spent.Seconds()
}

// writeSpans and readSpans name the layer calls whose time is reported
// as a share of the write or the read root spans. The cluster fetch
// counts whole: its owner GETs and wire decodes run in parallel inside
// it, so their times do not add up to wall time.
var (
	writeSpans = []string{"server.decode", "store.append", "store.wait_durable", "sketch.apply", "cluster.fan_ack"}
	readSpans  = []string{"sketch.refill", "sketch.topk", "sketch.subset_sum", "sketch.estimate", "query.index",
		"query.run", "cluster.fetch", "cluster.merge", "cluster.materialize"}
)

// layerMetrics turns the traced replay into the per-layer metrics.
func (b *bench) layerMetrics() {
	rep := b.tr.analyze()
	us := func(name string) float64 { return 1000 * rep.p50(name) }
	b.layer["server.decode_us"] = us("server.decode")
	b.layer["store.append_us"] = us("store.append")
	b.layer["store.wait_durable_ms"] = rep.p50("store.wait_durable")
	b.layer["sketch.apply_us"] = us("sketch.apply")
	b.layer["sketch.refill_ms"] = rep.p50("sketch.refill")
	b.layer["sketch.topk_us"] = us("sketch.topk")
	b.layer["sketch.subset_sum_us"] = us("sketch.subset_sum")
	b.layer["sketch.estimate_us"] = us("sketch.estimate")
	b.layer["query.index_ms"] = rep.p50("query.index")
	b.layer["query.run_us"] = us("query.run")
	b.layer["wire.decode_us"] = us("wire.decode")
	b.layer["cluster.fetch_ms"] = rep.p50("cluster.fetch_owner")
	b.layer["cluster.merge_ms"] = rep.p50("cluster.merge")
	b.layer["cluster.materialize_ms"] = rep.p50("cluster.materialize")
	if rep.byName["cluster.fan_ack"] != nil {
		b.layer["cluster.fan_ack_ms"] = rep.p50("cluster.fan_ack") - rep.p50("server.decode")
	}

	// The edge is what the HTTP path adds over the in-process pipeline
	// for the same operation class: handler, admission, queueing,
	// encoding and loopback.
	var edges []float64
	for _, c := range []struct{ http, root, metric string }{
		{"ack", "op.ingest", "server.edge_ack_ms"},
		{"topk", "op.topk", "server.edge_topk_ms"},
		{"sum", "op.sum", "server.edge_sum_ms"},
		{"groupby", "op.groupby", "server.edge_groupby_ms"},
	} {
		httpP50, n := b.lat.pct(c.http, 0.5)
		if n == 0 || rep.byName[c.root] == nil {
			continue
		}
		if c.http == "ack" && rep.byName["cluster.fan_ack"] != nil {
			continue // the cluster's replayed ingest is itself an HTTP request
		}
		e := httpP50 - rep.p50(c.root)
		b.layer[c.metric] = e
		edges = append(edges, e)
	}
	b.layer["server.edge_ms"] = median(edges)

	// Top-k time split: the served p50 against the replayed pipeline's.
	if httpP50, n := b.lat.pct("topk", 0.5); n > 0 && httpP50 > 0 {
		b.layer["share.topk.pipeline_pct"] = 100 * rep.p50("op.topk") / httpP50
		b.layer["share.topk.edge_pct"] = 100 - b.layer["share.topk.pipeline_pct"]
	}

	// Shares split the root spans' time among the layer calls the root
	// made directly; "other" is the replay's own time between calls.
	share := func(side string, roots []string, spans []string) {
		var total, other float64
		for _, r := range roots {
			total += rep.rootMS[r]
			other += rep.split[r][""]
		}
		if total == 0 {
			return
		}
		for _, s := range spans {
			var t float64
			for _, r := range roots {
				t += rep.split[r][s]
			}
			b.layer["share."+side+"."+s+"_pct"] = 100 * t / total
		}
		b.layer["share."+side+".other_pct"] = 100 * other / total
	}
	share("write", []string{"op.ingest"}, writeSpans)
	share("read", []string{"op.topk", "op.sum", "op.groupby", "op.estimate"}, readSpans)
}
