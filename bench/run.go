package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"freshcache"
	"freshcache/internal/proto"
)

// runner drives one workload against one booted topology.
type runner struct {
	w    *workloadSpec
	tp   *topology
	keys []string
	tk   *tracker
	c    *freshcache.Client // the generator's one client, to the LB

	pace *pacer
}

func newRunner(w *workloadSpec, tp *topology, keys []string, tk *tracker) (*runner, error) {
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	return &runner{
		w: w, tp: tp, keys: keys, tk: tk, pace: pace,
		c: freshcache.NewClient(tp.lbAddr, freshcache.ClientOptions{MaxConns: genMaxConns}),
	}, nil
}

func (r *runner) close() {
	r.c.Close()
	r.pace.close()
}

// tracedReq is one request of the traced pass: the harness's own client
// span around the call plus the hop spans the servers returned.
type tracedReq struct {
	ID    uint64       `json:"id"`
	Write bool         `json:"write"`
	Start int64        `json:"start_ns"` // unix nanoseconds at send
	Dur   int64        `json:"dur_ns"`
	Hops  []proto.Span `json:"hops"`
}

// phaseResult is what one phase measured. Latencies are microseconds,
// one exact sample per operation of an open loop.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	reads     []float64 // latency of read ops, from their due time
	writes    []float64
	late      []float64 // actual send minus due
	queued    int       // ops no worker was free for at their due time
	overLimit int       // ops past the phase-A latency limit (failed ones included)
	keysRead  int
	staleKeys int // keys read older than the newest version acked before the send
	lateKeys  int // keys read below the version acked more than contractSlack before the send
	traces    []tracedReq
	firstErr  error
}

func (p *phaseResult) merge(q *phaseResult) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.reads = append(p.reads, q.reads...)
	p.writes = append(p.writes, q.writes...)
	p.late = append(p.late, q.late...)
	p.queued += q.queued
	p.overLimit += q.overLimit
	p.keysRead += q.keysRead
	p.staleKeys += q.staleKeys
	p.lateKeys += q.lateKeys
	p.traces = append(p.traces, q.traces...)
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// worker is one goroutine's scratch: value buffers it re-stamps per
// write and the expectation slots of the keys of its current read.
type worker struct {
	names []string
	vals  [][]byte
	want  []expected
	res   phaseResult
}

func (r *runner) newWorker() *worker {
	n := 1
	if r.w.batch {
		n = batchKeys
	}
	wk := &worker{names: make([]string, n), vals: make([][]byte, n), want: make([]expected, n)}
	for i := range wk.vals {
		wk.vals[i] = newValue(0, r.w.valSize)
	}
	return wk
}

var errCheck = errors.New("check failed")

// issue sends one operation and verifies its outcome. traceID != 0
// selects the traced client calls. It returns the send and completion
// times; a failed check or transport error is recorded in wk.res.
func (r *runner) issue(wk *worker, o *op, traceID uint64) (sent, done time.Time) {
	n := len(o.keys)
	names := wk.names[:n]
	for i, id := range o.keys {
		names[i] = r.keys[id]
	}
	var (
		err  error
		hops *proto.Trace
	)
	sent = time.Now()
	switch {
	case o.write && !r.w.batch:
		stamp(wk.vals[0], o.keys[0])
		var ver uint64
		if traceID != 0 {
			ver, hops, err = r.c.PutTraced(names[0], wk.vals[0], traceID)
		} else {
			ver, err = r.c.Put(names[0], wk.vals[0])
		}
		done = time.Now()
		if err == nil {
			r.tk.acked(o.keys[0], ver, done)
		}
	case o.write:
		for i, id := range o.keys {
			stamp(wk.vals[i], id)
		}
		var out []freshcache.MPutResult
		if traceID != 0 {
			out, hops, err = r.c.MPutTraced(names, wk.vals[:n], traceID)
		} else {
			out, err = r.c.MPut(names, wk.vals[:n])
		}
		done = time.Now()
		for i := range out {
			if out[i].Err != nil {
				err = out[i].Err
				continue
			}
			r.tk.acked(o.keys[i], out[i].Version, done)
		}
	case !r.w.batch:
		wk.want[0] = r.tk.expect(o.keys[0], sent)
		var (
			val []byte
			ver uint64
		)
		if traceID != 0 {
			val, ver, hops, err = r.c.GetTraced(names[0], traceID)
		} else {
			val, ver, err = r.c.Get(names[0])
		}
		done = time.Now()
		if err == nil {
			err = r.checkRead(wk, 0, o.keys[0], val, ver)
		}
	default:
		for i, id := range o.keys {
			wk.want[i] = r.tk.expect(id, sent)
		}
		var out []freshcache.MGetResult
		if traceID != 0 {
			out, hops, err = r.c.MGetTraced(names, traceID)
		} else {
			out, err = r.c.MGet(names)
		}
		done = time.Now()
		for i := range out {
			if !out[i].Found {
				err = fmt.Errorf("%w: %s not found", errCheck, names[i])
				continue
			}
			if e := r.checkRead(wk, i, o.keys[i], out[i].Value, out[i].Version); e != nil {
				err = e
			}
		}
	}
	wk.res.attempted++
	if err != nil {
		wk.res.failed++
		if wk.res.firstErr == nil {
			wk.res.firstErr = err
		}
	}
	if traceID != 0 {
		tq := tracedReq{ID: traceID, Write: o.write, Start: sent.UnixNano(), Dur: int64(done.Sub(sent))}
		if hops != nil {
			tq.Hops = hops.Spans
		}
		wk.res.traces = append(wk.res.traces, tq)
	}
	return sent, done
}

// checkRead verifies one key of a read: the value must carry the id of
// the key asked for (a pooled or borrowed buffer handed to the wrong
// request shows here), and its version must not be one the system has
// lost a write over. A version below the newest acked one is a stale
// read, allowed within T; one below what the T contract had promised by
// the time the read was sent is a late read. Both are counted.
func (r *runner) checkRead(wk *worker, slot int, id uint32, val []byte, ver uint64) error {
	want := wk.want[slot]
	wk.res.keysRead++
	if ver < want.latest {
		wk.res.staleKeys++
	}
	switch {
	case len(val) != r.w.valSize || valueID(val) != id:
		return fmt.Errorf("%w: %s returned another key's value", errCheck, r.keys[id])
	case ver < want.lost:
		return fmt.Errorf("%w: %s read version %d, but %d was acked more than %v before the read was sent",
			errCheck, r.keys[id], ver, want.lost, lostAfter)
	case ver < want.late:
		wk.res.lateKeys++
	}
	return nil
}

// openLoop issues ops on their due times regardless of completions. A
// pacer hands each operation to an idle worker when it comes due, so up
// to genWorkers requests are in flight; when none is idle the operation
// (and every one behind it) waits and is counted as queued. Latency is
// timed from the due time, which charges a stall to every request that
// came due meanwhile.
func (r *runner) openLoop(ops []op, traced bool) phaseResult {
	type job struct {
		i   int
		due time.Time
	}
	var (
		jobs  = make(chan job)
		wg    sync.WaitGroup
		total phaseResult
		mu    sync.Mutex
	)
	for g := 0; g < genWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := r.newWorker()
			for j := range jobs {
				o := &ops[j.i]
				var traceID uint64
				if traced {
					traceID = uint64(j.i) + 1
				}
				failed := wk.res.failed
				sent, done := r.issue(wk, o, traceID)
				wk.res.late = append(wk.res.late, us(sent.Sub(j.due)))
				lat, limit := done.Sub(j.due), readLimit
				if o.write {
					limit = writeLimit
					wk.res.writes = append(wk.res.writes, us(lat))
				} else {
					wk.res.reads = append(wk.res.reads, us(lat))
				}
				if lat > limit || wk.res.failed > failed {
					wk.res.overLimit++
				}
			}
			mu.Lock()
			total.merge(&wk.res)
			mu.Unlock()
		}()
	}

	start := time.Now()
	var paceErr error
	for i := range ops {
		j := job{i: i, due: start.Add(ops[i].due)}
		if paceErr = r.pace.sleepUntil(j.due); paceErr != nil {
			break
		}
		select {
		case jobs <- j:
		default:
			total.queued++
			jobs <- j
		}
	}
	close(jobs)
	wg.Wait()
	total.elapsed = time.Since(start)
	if paceErr != nil {
		total.attempted++
		total.failed++
		total.firstErr = paceErr
	}
	return total
}

// closedLoop keeps genWorkers requests in flight for d: each worker
// sends its next request as soon as the previous one completes, cycling
// through ops.
func (r *runner) closedLoop(ops []op, d time.Duration) phaseResult {
	var (
		next  atomic.Int64
		stop  atomic.Bool
		wg    sync.WaitGroup
		total phaseResult
		mu    sync.Mutex
	)
	start := time.Now()
	timer := time.AfterFunc(d, func() { stop.Store(true) })
	defer timer.Stop()
	for g := 0; g < genWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := r.newWorker()
			for !stop.Load() {
				i := int(next.Add(1)-1) % len(ops)
				r.issue(wk, &ops[i], 0)
			}
			mu.Lock()
			total.merge(&wk.res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}
