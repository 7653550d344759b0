package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// epoch is the origin of sample completion times. Samples hold an
// offset from it rather than a time.Time so they carry no pointers and
// add no work to the garbage collector the servers share.
var epoch = time.Now()

// sample is one timed operation: when it completed and how long it took.
type sample struct {
	at time.Duration // since epoch
	ms float64
}

// latencies collects per-class request latencies in milliseconds.
type latencies struct {
	mu sync.Mutex
	s  map[string][]sample
}

func newLatencies() *latencies { return &latencies{s: map[string][]sample{}} }

func (l *latencies) add(class string, d time.Duration) {
	now := time.Since(epoch)
	l.mu.Lock()
	l.s[class] = append(l.s[class], sample{at: now, ms: float64(d) / float64(time.Millisecond)})
	l.mu.Unlock()
}

// values returns the latencies of class that completed in [from, to).
func (l *latencies) values(class string, from, to time.Time) []float64 {
	lo, hi := from.Sub(epoch), to.Sub(epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	var v []float64
	for _, s := range l.s[class] {
		if s.at >= lo && s.at < hi {
			v = append(v, s.ms)
		}
	}
	return v
}

// pct returns the q-quantile (0 < q ≤ 1) of all of class by nearest
// rank, and the sample count.
func (l *latencies) pct(class string, q float64) (float64, int) {
	v := l.values(class, epoch, epoch.Add(1<<62))
	return quantile(v, q), len(v)
}

// quantile is the nearest-rank q-quantile of v (v is reordered); 0 for
// an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func median(v []float64) float64 { return quantile(append([]float64(nil), v...), 0.5) }
