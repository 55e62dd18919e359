package main

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// contractSlack is how long after a write's ack a read may still return
	// an older version and be on time by the T contract: one flush interval
	// plus half of one for push delivery and scheduling on a busy box. A
	// read below that floor is late. Late reads are counted and printed,
	// not failed: the flush comes up to T after the ack by design, so half
	// an interval is all the margin there is, and on a shared host a vCPU
	// held back for 150 ms while a push is on its way uses it up with
	// nothing wrong in the program (see Correctness in README.md).
	contractSlack = T + T/2

	// lostAfter is how long after a write's ack an older version is a lost
	// write, a failed operation whatever the box was doing: it is past T
	// plus the second of silence after which a cache gives a push channel
	// up for dead and resynchronises, with as much again for margin. Only
	// a push that was dropped, or a stale fill installed as fresh, keeps a
	// cache behind for that long.
	lostAfter = 10 * T
)

// tracker remembers, per key, the versions whose acks the generator has
// received, so reads can be judged from outside the system: against
// store-assigned versions, not against deadlines the caches stamped
// themselves. Keys never change owner in this benchmark, so one key's
// versions are comparable.
type tracker struct {
	keys []keyState
}

type keyState struct {
	// latest is the highest acked version: a read sent after the ack
	// that returns less is a stale read (allowed within T, counted).
	latest atomic.Uint64

	mu         sync.Mutex
	late, lost floor // acked more than contractSlack / lostAfter ago
}

// floor tracks a version known to have been acked more than some age
// ago: settled is one, pend the next candidate, promoted once it has
// aged. Acks arriving while pend is still ageing are skipped: the floor
// only ever needs to be a lower bound.
type floor struct {
	settled uint64
	pendVer uint64
	pendAt  time.Time
}

func (f *floor) acked(ver uint64, at time.Time, age time.Duration) {
	if f.pendVer == 0 || at.Sub(f.pendAt) > age {
		if f.pendVer > f.settled {
			f.settled = f.pendVer
		}
		f.pendVer, f.pendAt = ver, at
	}
}

func (f *floor) at(sent time.Time, age time.Duration) uint64 {
	if f.pendVer > f.settled && sent.Sub(f.pendAt) > age {
		return f.pendVer
	}
	return f.settled
}

func newTracker(n int) *tracker { return &tracker{keys: make([]keyState, n)} }

// preloaded records a set-up write; it is old by the time traffic
// starts, so it settles at once.
func (t *tracker) preloaded(id uint32, ver uint64) {
	k := &t.keys[id]
	k.latest.Store(ver)
	k.late.settled, k.lost.settled = ver, ver
}

// acked records a write acknowledged at time at with version ver.
func (t *tracker) acked(id uint32, ver uint64, at time.Time) {
	k := &t.keys[id]
	for {
		cur := k.latest.Load()
		if ver <= cur || k.latest.CompareAndSwap(cur, ver) {
			break
		}
	}
	k.mu.Lock()
	k.late.acked(ver, at, contractSlack)
	k.lost.acked(ver, at, lostAfter)
	k.mu.Unlock()
}

// expected is what a read of one key sent at some instant may return:
// below lost it failed, below late it is later than the T contract
// allows, below latest (the newest acked version) it is stale.
type expected struct {
	lost, late, latest uint64
}

// expect is taken when a read is sent.
func (t *tracker) expect(id uint32, sent time.Time) expected {
	k := &t.keys[id]
	x := expected{latest: k.latest.Load()}
	k.mu.Lock()
	x.late = k.late.at(sent, contractSlack)
	x.lost = k.lost.at(sent, lostAfter)
	k.mu.Unlock()
	return x
}
