package main

import (
	"fmt"
	"sync"
	"time"

	"freshcache"
)

const (
	// probeEvery spaces the probes on a fixed schedule. It is chosen
	// incommensurate with T so successive probes land on evenly spread
	// phases of the stores' flush tickers: the lag distribution is then
	// sampled without the clumping random think times would add, and a
	// probe chain that waited for visibility before writing again would
	// lock onto the ticker and always measure a full interval.
	probeEvery = 37 * time.Millisecond
	probePoll  = 5 * time.Millisecond
)

// probeResult is the write-to-visible lag distribution of one phase. A
// lag over contractSlack is late by the T contract, counted like a late
// read; a write still not visible after lostAfter is lost, and its probe
// failed. A key comes round again every proberKeys × probeEvery, which is
// longer than contractSlack, so two probes share a key only behind a late
// one (where the older is satisfied by either version), and often enough
// that each key is polled again before a bounded cache could evict it.
type probeResult struct {
	lagsMs    []float64
	late      int
	attempted int
	failed    int
	firstErr  error
}

// probe measures propagation lag for d: each probe PUTs a dedicated key
// through the LB, then polls each cache directly until both return at
// least the acked version; the lag runs from the ack to the last cache.
// This is the quantity T bounds.
func (r *runner) probe(d time.Duration) probeResult {
	lbc := freshcache.NewClient(r.tp.lbAddr, freshcache.ClientOptions{})
	defer lbc.Close()
	caches := make([]*freshcache.Client, len(r.tp.cacheAddrs))
	for i, addr := range r.tp.cacheAddrs {
		caches[i] = freshcache.NewClient(addr, freshcache.ClientOptions{})
		defer caches[i].Close()
	}

	var (
		res probeResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	one := func(k int) {
		defer wg.Done()
		key := proberKey(k % proberKeys)
		lag, err := probeOnce(lbc, caches, key, newValue(proberID(k%proberKeys), r.w.valSize))
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			return
		}
		res.lagsMs = append(res.lagsMs, float64(lag)/float64(time.Millisecond))
		if lag > contractSlack {
			res.late++
		}
	}
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * probeEvery)
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		wg.Add(1)
		go one(k)
	}
	wg.Wait()
	return res
}

func probeOnce(lbc *freshcache.Client, caches []*freshcache.Client, key string, val []byte) (time.Duration, error) {
	ver, err := lbc.Put(key, val)
	if err != nil {
		return 0, fmt.Errorf("probe put %s: %w", key, err)
	}
	acked := time.Now()
	seen := make([]bool, len(caches))
	for remaining := len(caches); ; {
		for i, c := range caches {
			if seen[i] {
				continue
			}
			_, got, err := c.Get(key)
			if err != nil {
				return 0, fmt.Errorf("probe poll %s: %w", key, err)
			}
			if got >= ver {
				seen[i] = true
				remaining--
			}
		}
		lag := time.Since(acked)
		if remaining == 0 {
			return lag, nil
		}
		if lag > lostAfter {
			return 0, fmt.Errorf("%w: %s version %d not visible on every cache after %v", errCheck, key, ver, lag)
		}
		time.Sleep(probePoll)
	}
}
