package main

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"freshcache"
	"freshcache/internal/proto"
)

// traceCmd runs one traced GET (or PUT, when a value is given) and
// pretty-prints the hop tree from the response's accumulated spans.
func traceCmd(c *freshcache.Client, args []string) error {
	id := newTraceID()
	var (
		t   *proto.Trace
		err error
	)
	start := time.Now()
	if len(args) == 2 {
		var ver uint64
		ver, t, err = c.PutTraced(args[0], []byte(args[1]), id)
		if err != nil {
			return err
		}
		fmt.Printf("OK version=%d\n", ver)
	} else {
		var (
			v   []byte
			ver uint64
		)
		v, ver, t, err = c.GetTraced(args[0], id)
		switch {
		case errors.Is(err, freshcache.ErrNotFound):
			fmt.Println("(not found)")
		case err != nil:
			return err
		default:
			fmt.Printf("%s  (version %d)\n", v, ver)
		}
	}
	rtt := time.Since(start)
	if t == nil || len(t.Spans) == 0 {
		fmt.Printf("trace %016x: no spans in response (server predates tracing?)\n", id)
		return nil
	}
	printTrace(t, rtt)
	return nil
}

// newTraceID draws a random sampled trace ID.
func newTraceID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	}
	return traceIDFrom(b)
}

// traceIDFrom turns eight random bytes into a trace ID with the low bit
// set: the client reads ID 0 as "untraced", so a zero draw would
// silently send an untraced request.
func traceIDFrom(b [8]byte) uint64 { return binary.BigEndian.Uint64(b[:]) | 1 }

// printTrace renders the hop tree. Each hop's duration includes
// everything downstream of it, so a span's depth is the number of spans
// whose interval encloses it — which handles batched fan-outs, where
// one hop scatters to several upstreams and the sub-hops are siblings,
// not a chain. Hops print in start order (outermost first among
// same-start spans), with self-time (own duration minus directly
// nested spans) alongside.
func printTrace(t *proto.Trace, rtt time.Duration) {
	fmt.Printf("trace %016x  client rtt %v, %d hops:\n", t.ID, rtt, len(t.Spans))
	order := make([]int, len(t.Spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := t.Spans[order[a]], t.Spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.Dur > sb.Dur
	})
	for _, i := range order {
		s := t.Spans[i]
		depth := 0
		for j, outer := range t.Spans {
			if j != i && contains(outer, s) {
				depth++
			}
		}
		self := time.Duration(s.Dur - nestedDur(t.Spans, i))
		fmt.Printf("  %*s%-16s %10v  (self %v)\n",
			2*depth, "", s.Node, time.Duration(s.Dur), self)
	}
}

// nestedDur sums the durations of the spans directly nested inside
// span i: spans whose interval lies within i's and within no closer
// enclosing span.
func nestedDur(spans []proto.Span, i int) int64 {
	var sum int64
	outer := spans[i]
	for j, s := range spans {
		if j == i || !contains(outer, s) {
			continue
		}
		direct := true
		for k, mid := range spans {
			if k == i || k == j {
				continue
			}
			if contains(outer, mid) && contains(mid, s) {
				direct = false
				break
			}
		}
		if direct {
			sum += s.Dur
		}
	}
	return sum
}

func contains(outer, inner proto.Span) bool {
	return inner.Start >= outer.Start && inner.Start+inner.Dur <= outer.Start+outer.Dur &&
		!(inner.Start == outer.Start && inner.Dur == outer.Dur && inner.Node == outer.Node)
}
