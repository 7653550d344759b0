// Command perfbench is the repository benchmark. It boots in-process
// ussd servers (one node, or a three-node cluster) on loopback
// listeners, drives them over HTTP from one seeded load generator,
// checks the answers, and prints the end-to-end metrics of one
// workload. With -trace 1 it instead prints per-layer metrics: it
// scrapes /metrics around the same HTTP run, then replays the
// workload's seeded inputs through each layer's public Go functions
// with a span around every call.
//
//	go run . -workload ingest-durable -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The process exits
// non-zero when any answer check fails, and without a result when an
// open-loop generator fell behind its schedule.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps a workload name to its runner.
var workloads = map[string]func(*bench) error{
	"ingest-durable":   runIngestDurable,
	"read-quiescent":   runReadQuiescent,
	"read-under-write": runReadUnderWrite,
	"cluster-rw":       runClusterRW,
}

// metricDef is one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rows_per_s", "rows/s"},
	{"ack_p50_ms", "ms"},
	{"ack_p90_ms", "ms"},
	{"reads_per_s", "1/s"},
	{"topk_p50_ms", "ms"},
	{"topk_p90_ms", "ms"},
	{"sum_p50_ms", "ms"},
	{"sum_p90_ms", "ms"},
	{"groupby_p50_ms", "ms"},
	{"groupby_p90_ms", "ms"},
	{"estimate_p50_ms", "ms"},
	{"sum_rel_err", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, reported on every workload;
// a layer the workload does not run reads 0.
var perLayer = []metricDef{
	{"server.decode_us", "us"},
	{"server.edge_ms", "ms"},
	{"server.edge_ack_ms", "ms"},
	{"server.edge_topk_ms", "ms"},
	{"server.edge_sum_ms", "ms"},
	{"server.edge_groupby_ms", "ms"},
	{"server.shed_ratio", "ratio"},
	{"store.append_us", "us"},
	{"store.wait_durable_ms", "ms"},
	{"store.fsync_p50_ms", "ms"},
	{"store.rows_per_fsync", "rows"},
	{"store.wal_bytes_per_row", "B/row"},
	{"sketch.apply_us", "us"},
	{"sketch.refill_ms", "ms"},
	{"sketch.topk_us", "us"},
	{"sketch.subset_sum_us", "us"},
	{"sketch.estimate_us", "us"},
	{"merge.bins_per_s", "bins/s"},
	{"query.index_ms", "ms"},
	{"query.run_us", "us"},
	{"wire.decode_us", "us"},
	{"cluster.fetch_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"cluster.materialize_ms", "ms"},
	{"cluster.fan_ack_ms", "ms"},
	{"cluster.hedge_ratio", "ratio"},
	{"cluster.degraded_ratio", "ratio"},
	{"driver.late_p99_ms", "ms"},
	{"driver.trace_overhead_pct", "%"},
	{"driver.ref_p50_ms", "ms"},
	{"driver.ref_fsync_ms", "ms"},
	{"driver.idle_cpu_pct", "%"},
	{"share.write.server.decode_pct", "%"},
	{"share.write.store.append_pct", "%"},
	{"share.write.store.wait_durable_pct", "%"},
	{"share.write.sketch.apply_pct", "%"},
	{"share.write.cluster.fan_ack_pct", "%"},
	{"share.write.other_pct", "%"},
	{"share.read.sketch.refill_pct", "%"},
	{"share.read.sketch.topk_pct", "%"},
	{"share.read.sketch.subset_sum_pct", "%"},
	{"share.read.sketch.estimate_pct", "%"},
	{"share.read.query.index_pct", "%"},
	{"share.read.query.run_pct", "%"},
	{"share.read.cluster.fetch_pct", "%"},
	{"share.read.cluster.merge_pct", "%"},
	{"share.read.cluster.materialize_pct", "%"},
	{"share.read.other_pct", "%"},
	{"share.topk.pipeline_pct", "%"},
	{"share.topk.edge_pct", "%"},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
		dir      = flag.String("dir", ".bench_build", "scratch directory for data dirs and span dumps")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, work, *trace == 1)
	defer b.cl.close()
	ref, err := startRef()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer ref.close()
	b.ref = ref
	fp := fingerprint(work)

	if err := fn(b); err != nil {
		var inv invalidRun
		if errors.As(err, &inv) {
			fmt.Fprintln(os.Stderr, "perfbench: run invalid:", inv)
			return 3
		}
		b.fail("%s: %v", *workload, err)
	}
	b.hostMetrics()
	if b.trace {
		if err := b.tr.write(filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))); err != nil {
			b.fail("write spans: %v", err)
		}
	}

	// The host's speed is calibrated again after the load: a run whose
	// two figures differ ran through a change of the host's speed.
	fp["cpu_calibration_end_ms"] = formatCalibration()
	fpJSON, _ := json.Marshal(fp) // a map of strings always marshals
	fmt.Printf("fingerprint %s\n", fpJSON)

	defs, vals := endToEnd, b.e2e
	if b.trace {
		defs, vals = perLayer, b.layer
	}
	b.printTable(defs, vals)
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   b.failed.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   map[string]map[string]any{},
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	for _, d := range defs {
		out.Metrics[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// hostMetrics records the reference bursts' median p50 and disk step,
// and the process's CPU use in the idle gaps before them as a share of
// the CPUs: the servers' own work while no request is in flight.
func (b *bench) hostMetrics() {
	b.layer["driver.ref_p50_ms"] = median(b.refs)
	b.layer["driver.ref_fsync_ms"] = median(b.syncs)
	if b.idleWall > 0 {
		b.layer["driver.idle_cpu_pct"] = 100 * b.idleCPU.Seconds() / b.idleWall.Seconds() / float64(runtime.GOMAXPROCS(0))
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printTable prints every metric by name and unit, with the sample
// counts behind each timing, plus the two figures that are reported in
// this table only (fail_ratio, and wal_bytes_per_row, which has no
// value on in-memory nodes).
func (b *bench) printTable(defs []metricDef, vals map[string]float64) {
	fmt.Printf("workload %s seed %d trace %v\n", b.name, b.seed, b.trace)
	for _, d := range defs {
		note := ""
		if n, ok := b.samples[d.name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Printf("  %-36s %14.4f %-7s%s\n", d.name, vals[d.name], d.unit, note)
	}
	if !b.trace {
		if v, ok := b.extra["wal_bytes_per_row"]; ok {
			fmt.Printf("  %-36s %14.4f %-7s\n", "wal_bytes_per_row", v, "B/row")
		} else {
			fmt.Printf("  %-36s %14s %-7s\n", "wal_bytes_per_row", "n/a", "B/row")
		}
		att := b.attempted.Load()
		ratio := 0.0
		if att > 0 {
			ratio = float64(b.failed.Load()) / float64(att)
		}
		fmt.Printf("  %-36s %14.4f %-7s  (%d of %d)\n", "fail_ratio", ratio, "ratio", b.failed.Load(), att)
	}
	fmt.Printf("  reference p50 ms: median %.4f over %d bursts (nominal %.4f); disk step ms: median %.4f over %d bursts (nominal %.4f); phase speeds %.3f; idle CPU %.2f%%\n",
		b.layer["driver.ref_p50_ms"], len(b.refs), refNominalMS, b.layer["driver.ref_fsync_ms"], len(b.syncs), syncNominalMS, b.speeds, b.layer["driver.idle_cpu_pct"])
	if _, ok := b.extra["late_p99_ms"]; ok {
		fmt.Printf("  open-loop lateness ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
			b.extra["late_p50_ms"], b.extra["late_p90_ms"], b.extra["late_p99_ms"], b.extra["late_max_ms"])
	}
	if b.trace {
		rep := b.tr.analyze()
		names := make([]string, 0, len(rep.byName))
		for n := range rep.byName {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("  %-36s %8s %12s %14s\n", "span (traced replay)", "calls", "p50 ms", "self total ms")
		for _, n := range names {
			st := rep.byName[n]
			fmt.Printf("  %-36s %8d %12.4f %14.3f\n", n, len(st.durs), rep.p50(n), st.self)
		}
	}
	for _, msg := range b.errs {
		fmt.Println("  FAIL", msg)
	}
}
