package main

import (
	"bufio"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of a daemon's /metrics, keyed by series name
// with its labels, exactly as exposed.
type scrape map[string]float64

var scrapeClient = &http.Client{Timeout: 2 * time.Second}

// scrapeMetrics fetches and parses addr's /metrics the way an operator's
// collector would, and reports how long the round trip took in ms.
func scrapeMetrics(addr string) (scrape, float64, error) {
	t := time.Now()
	resp, err := scrapeClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, 0, fmt.Errorf("scraping %s: %w", addr, err)
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, float64(time.Since(t)) / 1e6, sc.Err()
}

// since is how much series name grew between prev and s.
func (s scrape) since(prev scrape, name string) float64 { return s[name] - prev[name] }

// quantile estimates the q-quantile, in seconds, of what histogram name
// observed between prev and s, interpolating inside the bucket that
// holds the rank (the estimate obs.Histogram.Quantile makes in-process).
func (s scrape) quantile(prev scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(k[len(prefix):], `"}`)
		if le == "+Inf" {
			continue // ranks beyond the last bound report the last bound
		}
		if v, err := strconv.ParseFloat(le, 64); err == nil {
			bs = append(bs, bucket{v, s.since(prev, k)})
		}
	}
	total := s.since(prev, name+"_count")
	if total <= 0 || len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * total
	var lo, below float64
	for _, b := range bs { // b.n is cumulative
		if b.n >= rank && b.n > below {
			return lo + (b.le-lo)*(rank-below)/(b.n-below)
		}
		lo, below = b.le, b.n
	}
	return bs[len(bs)-1].le
}
