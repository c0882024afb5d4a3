package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// clients is the closed loop's width: callers of xqd wait for their
	// reply, and the sandbox has two cores.
	clients = 2
	// warmupRequests fill the caches and finish lazy set-up before timing.
	warmupRequests = 16
)

// queryReply is the part of xqd's /query JSON the harness reads.
type queryReply struct {
	Result    string     `json:"result"`
	Count     int        `json:"count"`
	ElapsedUs int64      `json:"elapsed_us"`
	Fixpoints []fixpoint `json:"fixpoints"`
}

// loadStats is what one closed-loop drive observed.
type loadStats struct {
	attempted, failed int
	latencyMs         []float64 // correct replies only
	overheadUs        []float64 // client latency minus the reply's elapsed_us
	window            time.Duration
	failures          []string // first few, naming workload and request index
}

// drive runs the closed loop over the cyclic request sequence, starting at
// sequence index first. It stops after count requests when count > 0,
// otherwise once window has passed; requests in flight at that moment
// complete and are counted, and the reported window is the time actually
// spent. Every reply is checked against its expected outcome.
func drive(ctx context.Context, s *xqd, w workload, reqs []request, oracle []outcome, first, count int, window time.Duration) loadStats {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		stats loadStats
		wg    sync.WaitGroup
	)
	next.Store(int64(first))
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if count > 0 && i >= first+count {
					return
				}
				if count == 0 && time.Since(start) >= window {
					return
				}
				r := reqs[i%len(reqs)]
				lat, reply, err := post(ctx, s, r)
				if err == nil {
					err = oracle[r.expect].check(reply.Result, reply.Count, reply.Fixpoints)
				}
				mu.Lock()
				stats.attempted++
				if err != nil {
					stats.failed++
					if len(stats.failures) < 5 {
						stats.failures = append(stats.failures, fmt.Sprintf("%s request %d: %v", w.name, i, err))
					}
				} else {
					stats.latencyMs = append(stats.latencyMs, float64(lat.Nanoseconds())/1e6)
					stats.overheadUs = append(stats.overheadUs, float64(lat.Nanoseconds())/1e3-float64(reply.ElapsedUs))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stats.window = time.Since(start)
	return stats
}

// post sends one request and times it from the request write to the last
// body byte; decoding happens after the clock stops.
func post(ctx context.Context, s *xqd, r request) (time.Duration, queryReply, error) {
	var reply queryReply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/query?"+r.params(), strings.NewReader(r.query))
	if err != nil {
		return 0, reply, err
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, reply, err
	}
	body, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return 0, reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, reply, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return 0, reply, fmt.Errorf("bad reply: %w", err)
	}
	return lat, reply, nil
}

// rank is the nearest-rank index (1-based) of the p-th percentile among n
// samples; the epsilon keeps 99.9 % of 10000 at 9990 despite float rounding.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of the
// samples, which it sorts in place; 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	return samples[rank(p, len(samples))-1]
}

// tailPercentile is the highest percentile of the ladder that still has at
// least ten of n samples beyond it; 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}
