package main

// Host-speed correction. The benchmark runs on shared virtual CPUs
// whose speed drifts between runs, and within one, by more than the
// benchmark's bounds: the reference below answered in 0.21 ms at one
// time and 0.45 ms an hour later. A measured phase therefore runs its
// load in short slices, and in the pause after each slice, while no
// request is in flight, it sends a burst of requests to a reference
// server: a net/http handler on loopback that does read-like work with
// the standard library only. Each window's timings are scaled by the
// reference's p50 in that window to the speed at which the reference
// answers in refNominalMS, so a window on a slow host reads as it would
// at the nominal speed. A phase whose acks wait for fsync also times a
// few appends and fsyncs of a file in the run's directory, on the
// WAL's filesystem, after each burst, and its speed counts the disk
// steps beside the requests, so a slow disk is divided out of it too.
// The reference calls nothing in the program, so a change to the
// program moves it only by using CPU or disk while no request is in
// flight; driver.idle_cpu_pct shows the CPU.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// sliceLen is how long load runs between two reference bursts.
	sliceLen = 250 * time.Millisecond
	// burstLen is how long each reference burst runs: about a hundred
	// requests.
	burstLen = 25 * time.Millisecond
	// idleGap is the pause before each burst in which the process's
	// CPU use is read.
	idleGap = 5 * time.Millisecond
	// refNominalMS is the reference's p50 at the nominal speed, about
	// its median on a 2-vCPU Intel Xeon VM (go1.24). Corrected timings
	// are in milliseconds at that speed.
	refNominalMS = 0.3
	// refItems is the reference server's table size.
	refItems = 4096
	// syncBlock is what one disk step appends before its fsync: about
	// what one group-commit fsync covers on ingest-durable (3.5k rows of
	// 20 WAL bytes).
	syncBlock = 64 << 10
	// syncSteps is how many disk steps follow each burst of a durable
	// phase.
	syncSteps = 8
	// syncNominalMS is a disk step's median at the nominal speed, about
	// its median on the VM refNominalMS was taken on.
	syncNominalMS = 0.25
)

// slice is one stretch of load: it ran from from until the load
// returned at to, and the reference burst right after read refMS (and,
// on a durable phase, its disk steps syncMS).
type slice struct {
	from, to      time.Time
	refMS, syncMS float64
}

// phase is one measured load phase: its counted slices, after the
// warm-up slices.
type phase struct{ slices []slice }

// refServer is the reference: a loopback net/http server whose handler
// filters a table by prefix, sorts the matches and encodes the top 100
// as JSON, driven by one closed-loop client of its own.
type refServer struct {
	hs     *http.Server
	done   chan struct{} // closed when Serve has returned
	url    string
	counts map[string]float64
	cl     *client
	next   int
}

func startRef() (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &refServer{url: "http://" + ln.Addr().String(), counts: map[string]float64{}, cl: newClient()}
	x := uint64(88172645463325252)
	for i := 0; i < refItems; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r.counts[fmt.Sprintf("c%d|ad=%d", i%10, x%1000003)] = float64(x % 1000)
	}
	r.hs, r.done = &http.Server{Handler: http.HandlerFunc(r.serve)}, make(chan struct{})
	go func() {
		defer close(r.done)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return r, nil
}

type refEntry struct {
	Item  string  `json:"item"`
	Count float64 `json:"count"`
}

func (r *refServer) serve(w http.ResponseWriter, req *http.Request) {
	prefix := req.URL.Query().Get("p")
	var out []refEntry
	for k, v := range r.counts {
		if strings.HasPrefix(k, prefix) {
			out = append(out, refEntry{k, v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out[:min(len(out), 100)])
}

// burst runs the reference's client for burstLen and returns the p50
// latency in milliseconds.
func (r *refServer) burst() (float64, error) {
	var v []float64
	for until := time.Now().Add(burstLen); time.Now().Before(until); r.next++ {
		t0 := time.Now()
		if _, err := r.cl.get(fmt.Sprintf("%s/?p=c%d", r.url, r.next%10)); err != nil {
			return 0, fmt.Errorf("reference: %w", err)
		}
		v = append(v, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return quantile(v, 0.5), nil
}

func (r *refServer) close() {
	_ = r.hs.Close() // nothing is left to answer once the run is over
	<-r.done
	r.cl.close()
}

// diskRef is the disk side of the reference: a file in the run's
// directory that each step appends syncBlock bytes to and fsyncs.
type diskRef struct {
	f     *os.File
	block []byte
}

func openDiskRef(dir string) (*diskRef, error) {
	f, err := os.OpenFile(filepath.Join(dir, "disk-reference"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &diskRef{f: f, block: make([]byte, syncBlock)}, nil
}

// burst times syncSteps appends with their fsyncs and returns the
// median in milliseconds.
func (d *diskRef) burst() (float64, error) {
	var v []float64
	for i := 0; i < syncSteps; i++ {
		t0 := time.Now()
		if _, err := d.f.Write(d.block); err != nil {
			return 0, fmt.Errorf("disk reference: %w", err)
		}
		if err := d.f.Sync(); err != nil {
			return 0, fmt.Errorf("disk reference: %w", err)
		}
		v = append(v, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return quantile(v, 0.5), nil
}

// close closes the file; every step already fsynced what it wrote, and
// the file is removed with the run's directory.
func (d *diskRef) close() error { return d.f.Close() }

// refBurst runs one reference burst after an idle gap, keeping the
// figures behind driver.ref_p50_ms and driver.idle_cpu_pct.
func (b *bench) refBurst() (float64, error) {
	c0 := processCPU()
	time.Sleep(idleGap)
	b.idleCPU += processCPU() - c0
	b.idleWall += idleGap
	ms, err := b.ref.burst()
	if err == nil {
		b.refs = append(b.refs, ms)
	}
	return ms, err
}

// measure runs load for warm then d, in slices of sliceLen, with a
// reference burst after each, and disk steps too when disk is not nil.
// load(from, until) starts load at from, stops issuing at until and
// returns once every request it issued has completed. Slices that start
// in the warm-up are not counted.
func (b *bench) measure(d, warm time.Duration, disk *diskRef, load func(from, until time.Time)) (phase, error) {
	runtime.GC()
	var p phase
	for elapsed := time.Duration(0); elapsed < warm+d; elapsed += sliceLen {
		from := time.Now()
		load(from, from.Add(sliceLen))
		s := slice{from: from, to: time.Now()}
		var err error
		if s.refMS, err = b.refBurst(); err != nil {
			return p, err
		}
		if disk != nil {
			if s.syncMS, err = disk.burst(); err != nil {
				return p, err
			}
			b.syncs = append(b.syncs, s.syncMS)
		}
		if elapsed >= warm {
			p.slices = append(p.slices, s)
		}
	}
	b.speeds = append(b.speeds, p.speed())
	return p, nil
}

// windows splits p's slices into k groups of consecutive slices.
func (p phase) windows(k int) []phase {
	k = max(1, min(k, len(p.slices)))
	out := make([]phase, k)
	for i := range out {
		out[i] = phase{slices: p.slices[i*len(p.slices)/k : (i+1)*len(p.slices)/k]}
	}
	return out
}

// activeSecs is the time load ran in p.
func (p phase) activeSecs() float64 {
	var s time.Duration
	for _, sl := range p.slices {
		s += sl.to.Sub(sl.from)
	}
	return s.Seconds()
}

// speed is how fast the host answered p's reference bursts (and disk
// steps), relative to the nominal speed: a timing in p times speed is
// the timing at the nominal speed.
func (p phase) speed() float64 {
	var nominal, took float64
	for _, sl := range p.slices {
		nominal += refNominalMS
		if sl.syncMS > 0 {
			nominal += syncNominalMS
		}
		took += sl.refMS + sl.syncMS
	}
	return nominal / took
}

// phaseValues returns the latencies of class that completed in p's
// slices.
func (l *latencies) phaseValues(class string, p phase) []float64 {
	var v []float64
	for _, sl := range p.slices {
		v = append(v, l.values(class, sl.from, sl.to)...)
	}
	return v
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
