package main

// Closed- and open-loop load drivers.

import (
	"sync"
	"time"
)

// closedLoop runs clients goroutines until the deadline; each calls op
// and waits for it before the next call, so a slow server receives less
// load. It returns once every client has returned.
func closedLoop(clients int, until time.Time, op func(client int)) {
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				op(c)
			}
		}(c)
	}
	wg.Wait()
}

// openLoopStats describes how closely an open-loop generator kept to
// its schedule.
type openLoopStats struct {
	sent   int
	lateMS []float64 // per request: send time minus due time
}

func (s *openLoopStats) add(o openLoopStats) {
	s.sent += o.sent
	s.lateMS = append(s.lateMS, o.lateMS...)
}

// openLoop issues op every interval from start until until, each on its
// own goroutine, whether or not earlier requests have completed: the
// number of outstanding requests is not capped, so a slow server shows
// as ack latency and lateness measures only the generator. op receives
// the request's number, counted from first, and its due time, so
// latency is measured from when the request should have been sent. It
// returns once every request has completed.
func openLoop(first int, start, until time.Time, interval time.Duration, op func(i int, due time.Time)) openLoopStats {
	var st openLoopStats
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.lateMS = append(st.lateMS, float64(time.Since(due))/float64(time.Millisecond))
		st.sent++
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			op(i, due)
		}(first+i, due)
	}
	wg.Wait()
	return st
}
