package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"freshcache/internal/stats"
)

// The layers a request crosses, outermost first. A hop span's node name
// ("lb", "cache:c0", "store:shard-1") names its layer; the client span
// is the harness's own, recorded around the call.
const (
	layerClient = iota
	layerLB
	layerCache
	layerStore
	numLayers
)

var layerNames = [numLayers]string{"client", "lb", "cache", "store"}

func layerOf(node string) (int, error) {
	switch {
	case node == "lb":
		return layerLB, nil
	case strings.HasPrefix(node, "cache:"):
		return layerCache, nil
	case strings.HasPrefix(node, "store:"):
		return layerStore, nil
	}
	return 0, fmt.Errorf("span from unknown node %q", node)
}

// selfTimes splits one traced request's client-observed duration among
// the layers: every instant belongs to the deepest layer with a span
// open at that instant. That is each span's duration minus the part its
// child spans cover, summed per layer, except that where a request fans
// out in parallel an instant is counted once, so the self times of a
// request add up to exactly what the client waited.
func selfTimes(tq *tracedReq) (self [numLayers]int64, seen [numLayers]bool, err error) {
	type edge struct {
		at    int64
		layer int
		open  bool
	}
	edges := make([]edge, 0, 2*(len(tq.Hops)+1))
	end := tq.Start + tq.Dur
	edges = append(edges, edge{tq.Start, layerClient, true}, edge{end, layerClient, false})
	seen[layerClient] = true
	for _, h := range tq.Hops {
		l, err := layerOf(h.Node)
		if err != nil {
			return self, seen, err
		}
		seen[l] = true
		// Clip to the client span: both ends read the same clock, but a
		// hop may be stamped a hair outside it.
		from, to := max(h.Start, tq.Start), min(h.Start+h.Dur, end)
		if to > from {
			edges = append(edges, edge{from, l, true}, edge{to, l, false})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var open [numLayers]int
	prev := tq.Start
	for _, e := range edges {
		for l := numLayers - 1; l >= 0; l-- {
			if open[l] > 0 {
				self[l] += e.at - prev
				break
			}
		}
		prev = e.at
		if e.open {
			open[e.layer]++
		} else {
			open[e.layer]--
		}
	}
	return self, seen, nil
}

// spanMetrics reports, per layer, the self-time distribution over the
// traced requests that reached the layer, and the hops a read crosses.
func spanMetrics(res *result, traces []tracedReq) error {
	var (
		per        [numLayers][]float64
		reads      int
		readHops   int
		selfTotal  int64
		clientTime int64
	)
	for i := range traces {
		tq := &traces[i]
		self, seen, err := selfTimes(tq)
		if err != nil {
			return err
		}
		for l := range self {
			if seen[l] {
				per[l] = append(per[l], float64(self[l])/1e3)
			}
			selfTotal += self[l]
		}
		clientTime += tq.Dur
		if !tq.Write {
			reads++
			readHops += len(tq.Hops)
		}
	}
	if selfTotal != clientTime {
		return fmt.Errorf("%w: layer self times sum to %d ns, the client waited %d ns", errCheck, selfTotal, clientTime)
	}
	for l, name := range layerNames {
		res.set(name+".self_us_p50", stats.ExactQuantile(per[l], 0.50))
		res.set(name+".self_us_p99", stats.ExactQuantile(per[l], 0.99))
	}
	res.set("trace.hops_per_read", ratio(float64(readHops), float64(reads)))
	return nil
}

// writeSpans dumps every traced request, client span and hop spans, as
// one JSON array.
func writeSpans(path string, traces []tracedReq) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traces); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
