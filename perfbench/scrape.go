package main

// /metrics scraping: counters are read at the start and end of the
// measured phase and the per-layer ratios are built from the deltas.

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one /metrics exposition, series name (with labels) → value.
type scrape map[string]float64

func parseMetrics(data []byte) scrape {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out
}

// scrapeNodes fetches /metrics from every node and sums the series.
func scrapeNodes(c *client, nodes []*node) (scrape, error) {
	sum := scrape{}
	for _, n := range nodes {
		data, err := c.get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range parseMetrics(data) {
			sum[k] += v
		}
	}
	return sum, nil
}

// family sums every series of the named metric family (any labels).
func (s scrape) family(name string) float64 {
	var t float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is after − before for a metric family.
func delta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}

// histQuantile estimates the q-quantile of the observations a
// cumulative Prometheus histogram gained between two scrapes, by linear
// interpolation inside the bucket that holds it. The result is in the
// histogram's unit.
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		raw := k[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		bs = append(bs, bucket{le: le, n: v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
