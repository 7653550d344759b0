package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bench is one run's state: inputs, counters, and the metrics filled
// in by the workload.
type bench struct {
	name  string
	seed  int64
	dur   time.Duration
	dir   string
	trace bool

	cl  *client
	lat *latencies
	tr  *tracer

	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	errs      []string

	e2e     map[string]float64
	layer   map[string]float64
	extra   map[string]float64
	samples map[string]int

	ref      *refServer
	refs     []float64     // every reference burst's p50, ms
	syncs    []float64     // every disk reference burst's median, ms
	speeds   []float64     // every measured phase's host speed
	idleCPU  time.Duration // process CPU in the idle gaps before bursts
	idleWall time.Duration // length of those gaps

	memBase float64       // RSS before the first set-up, MB
	memStop chan struct{} // stops the RSS sampler
	memPeak chan float64  // the sampler's peak RSS, MB
}

func newBench(name string, seed int64, dur time.Duration, dir string, trace bool) *bench {
	return &bench{
		name: name, seed: seed, dur: dur, dir: dir, trace: trace,
		cl:      newClient(),
		lat:     newLatencies(),
		tr:      newTracer(true),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		extra:   map[string]float64{},
		samples: map[string]int{},
	}
}

// maxErrs caps the failure messages kept for the report.
const maxErrs = 10

// fail counts one failed or wrong operation.
func (b *bench) fail(format string, args ...any) {
	b.attempted.Add(1)
	b.failed.Add(1)
	b.errMu.Lock()
	if len(b.errs) < maxErrs {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
	b.errMu.Unlock()
}

// check counts one answer check, failing it when err is non-nil.
func (b *bench) check(err error) {
	if err != nil {
		b.fail("%v", err)
		return
	}
	b.attempted.Add(1)
}

// timed records one measured operation of class started at start.
func (b *bench) timed(class string, start time.Time, err error) {
	if err != nil {
		b.fail("%s: %v", class, err)
		return
	}
	b.attempted.Add(1)
	b.lat.add(class, time.Since(start))
}

// setupRuns is how many times a run sets its servers up; setup_s is the
// median, and only the last set-up is measured.
const setupRuns = 5

// setup runs fn setupRuns times, timing each, and tears down all but the
// last; it records setup_s, each set-up's time scaled to the nominal
// host speed by a reference burst right after it. fn returns its
// teardown even on error.
func (b *bench) setup(fn func() (teardown func() error, err error)) error {
	debug.FreeOSMemory()
	b.memBase = rssMB()
	var times []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		teardown, err := fn()
		if err != nil {
			if teardown != nil {
				_ = teardown() // the set-up error is the one to report
			}
			return fmt.Errorf("set-up: %w", err)
		}
		secs := time.Since(start).Seconds()
		refMS, err := b.refBurst()
		if err != nil {
			_ = teardown()
			return err
		}
		times = append(times, secs*refNominalMS/refMS)
		if i < setupRuns-1 {
			if err := teardown(); err != nil {
				return fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	b.e2e["setup_s"] = median(times)
	debug.FreeOSMemory()
	b.watchMemory()
	return nil
}

// rssSampleEvery is how often the RSS sampler reads the process's RSS.
const rssSampleEvery = 20 * time.Millisecond

// watchMemory samples the process's RSS from the end of set-up until
// endMemory.
func (b *bench) watchMemory() {
	b.memStop, b.memPeak = make(chan struct{}), make(chan float64, 1)
	go func() {
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		peak := rssMB()
		for {
			select {
			case <-b.memStop:
				b.memPeak <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
}

// endMemory stops the RSS sampler at the end of a workload's measured
// phase and records peak_rss_mb: the peak RSS since set-up ended minus
// the RSS before the first set-up, when the generator's inputs were
// already rendered. It counts the servers' state, their working memory
// and the garbage-collector headroom of the heap they share with the
// generator, but not the generator's inputs.
func (b *bench) endMemory() {
	close(b.memStop)
	b.e2e["peak_rss_mb"] = <-b.memPeak - b.memBase
}

const (
	// warmup is load run before a measured phase and not counted;
	// probes, which follow a phase that already warmed the servers, get
	// probeWarmup.
	warmup      = 2 * time.Second
	probeWarmup = time.Second
	// numWindows splits a measured phase; rates and medians are the
	// median over the windows, so a burst of noise moves one window.
	numWindows = 8
	// probeShare sizes a probe phase as a fraction of the run length.
	probeShare = 2
)

// windowed is the median over p's windows of f applied to each
// window's latencies of the given classes, pooled, with the window's
// active seconds and host speed.
func (b *bench) windowed(p phase, classes []string, f func(v []float64, secs, speed float64) float64) float64 {
	var per []float64
	for _, w := range p.windows(numWindows) {
		var v []float64
		for _, c := range classes {
			v = append(v, b.lat.phaseValues(c, w)...)
		}
		per = append(per, f(v, w.activeSecs(), w.speed()))
	}
	return median(per)
}

// latencyMetrics records class's p50 (median over windows) and, when
// upper > 0, its upper percentile, with sample counts. The upper
// percentile is the median over as many windows (up to numWindows) as
// leave every window ten samples beyond it, so one burst of noise
// does not set the tail. Each window's figure is scaled to the nominal
// host speed.
func (b *bench) latencyMetrics(p phase, class string, upper int) {
	n := len(b.lat.phaseValues(class, p))
	b.e2e[class+"_p50_ms"] = b.windowed(p, []string{class}, func(v []float64, _, speed float64) float64 {
		return quantile(v, 0.5) * speed
	})
	b.samples[class+"_p50_ms"] = n
	if upper > 0 {
		q := float64(upper) / 100
		k := int(float64(n) * (1 - q) / 10)
		var per []float64
		for _, w := range p.windows(min(k, numWindows)) {
			per = append(per, quantile(b.lat.phaseValues(class, w), q)*w.speed())
		}
		name := fmt.Sprintf("%s_p%d_ms", class, upper)
		b.e2e[name] = median(per)
		b.samples[name] = n
	}
}

// summarizeWrites records the ingest metrics of phase p, whose batches
// all carry rows rows. A closed loop's rate is scaled to the nominal
// host speed; an open loop's is its offered rate as measured, which the
// host's speed does not set.
func (b *bench) summarizeWrites(p phase, rows int, closed bool) {
	b.e2e["ingest_rows_per_s"] = b.windowed(p, []string{"ack"}, func(v []float64, secs, speed float64) float64 {
		rate := float64(len(v)*rows) / secs
		if closed {
			rate /= speed
		}
		return rate
	})
	// The ack tail is p90, not p99: a closed-loop writer's p99 is set by
	// the few acks that wait out a collection or a slow fsync, and it
	// varies between runs of the same code by more than its bound.
	b.latencyMetrics(p, "ack", 90)
}

// summarizeReads records the read metrics of phase p; the readers are
// closed loops, so their rate is scaled to the nominal host speed.
// The tail is p90: the read-under-write and cluster-rw runs complete a
// few hundred reads of a class, too few for a p99 with ten samples
// beyond it.
func (b *bench) summarizeReads(p phase) {
	b.e2e["reads_per_s"] = b.windowed(p, opNames[:], func(v []float64, secs, speed float64) float64 {
		return float64(len(v)) / secs / speed
	})
	for _, c := range []string{"topk", "sum", "groupby"} {
		b.latencyMetrics(p, c, 90)
	}
	b.latencyMetrics(p, "estimate", 0)
}

// invalidRun reports a run whose measurement cannot be trusted, such as
// an open-loop generator that fell behind its schedule.
type invalidRun string

func (e invalidRun) Error() string { return string(e) }

// lateLimitMS is the open-loop lateness p99 above which a run is
// invalid: the generator slipped by more than two and a half send
// intervals. Lateness up to about 10 ms is normal here: the generator
// shares the process with the servers, and a goroutine that holds a
// CPU is preempted only after 10 ms.
const lateLimitMS = 25.0

// checkSchedule records driver.late_p99_ms and rejects a run whose
// generator fell behind.
func (b *bench) checkSchedule(st openLoopStats) error {
	late := quantile(st.lateMS, 0.99)
	b.layer["driver.late_p99_ms"] = late
	b.extra["late_p99_ms"] = late
	b.extra["late_p50_ms"] = quantile(st.lateMS, 0.5)
	b.extra["late_p90_ms"] = quantile(st.lateMS, 0.9)
	b.extra["late_max_ms"] = quantile(st.lateMS, 1)
	if late > lateLimitMS {
		return invalidRun(fmt.Sprintf("open-loop generator fell behind: lateness p99 %.2f ms over %d requests (limit %.0f ms)", late, st.sent, lateLimitMS))
	}
	return nil
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// fingerprint records what a result is keyed by: CPU count, model and
// speed at start-up, Go version, the data directory's filesystem, and
// the flush policy.
func fingerprint(dataDir string) map[string]string {
	return map[string]string{
		"cpu_calibration_ms": formatCalibration(),
		"gomaxprocs":         strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":              strconv.Itoa(runtime.NumCPU()),
		"go":                 runtime.Version(),
		"cpu_model":          cpuModel(),
		"data_dir_fs":        fsType(dataDir),
		"flush_policy":       flushPolicy(),
	}
}

// sinkCalib keeps the calibration loop's result alive.
var sinkCalib uint64

// calibrate times a fixed single-threaded xorshift loop and returns the
// median of five timings in milliseconds. Results taken on hosts, or in
// host speed modes, whose figures differ are not comparable.
func calibrate() float64 {
	var times []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(r + 1)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sinkCalib += x
		times = append(times, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(times)
}

func formatCalibration() string { return strconv.FormatFloat(calibrate(), 'f', 3, 64) }

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
