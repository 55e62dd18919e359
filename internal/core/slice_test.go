package core

import (
	"fmt"
	"testing"

	"freshcache/internal/costmodel"
	"freshcache/internal/sketch"
	"freshcache/internal/xrand"
)

// sub is the test clock's ticks per slice: a flush at tick t is in slice
// t/sub, at its boundary when t%sub is 0 and inside it otherwise.
const sub = 4

// sliceModel is the flush rule restated without a wheel: a key with an
// uncovered write is due in slice n iff its cooldown began at least Slices
// slices before n — where a key nobody had read when it was written is held
// as if its cooldown had begun at the flush before its write.
type sliceModel struct {
	pending  map[string]pendingWrite // key -> its oldest uncovered write
	lastPush map[string]uint64       // key -> slice its cooldown began in
	cooling  map[uint64]int          // slice -> cooldowns begun in it that no flush has ended
	read     map[string]bool         // keys read at least once
	prev     uint64                  // the slice of the last flush
}

func newSliceModel() *sliceModel {
	return &sliceModel{pending: map[string]pendingWrite{}, lastPush: map[string]uint64{}, cooling: map[uint64]int{}, read: map[string]bool{}}
}

// cool starts key's cooldown in slice at, or with start unset ends it.
func (m *sliceModel) cool(key string, at uint64, start bool) {
	if last, pushed := m.lastPush[key]; pushed && m.cooling[last] > 0 {
		if m.cooling[last]--; m.cooling[last] == 0 {
			delete(m.cooling, last)
		}
	}
	delete(m.lastPush, key)
	if start {
		m.lastPush[key] = at
		m.cooling[at]++
	}
}

// empty reports whether the engine holds nothing: no write uncovered, no
// cooldown a flush has yet to end.
func (m *sliceModel) empty() bool { return len(m.pending)+len(m.cooling) == 0 }

type pendingWrite struct {
	since int64 // the tick it was written at
	held  bool  // its key was cooling then, or had no reader
}

// write folds in a write at tick t and reports whether it makes its key due
// now: newly dirty, not cooling, read before.
func (m *sliceModel) write(key string, t uint64) (due bool) {
	if _, dirty := m.pending[key]; dirty {
		return false
	}
	last, pushed := m.lastPush[key]
	cooling := pushed && m.prev < last+Slices
	if !cooling && !m.read[key] {
		m.cool(key, m.prev, true)
	}
	due = !cooling && m.read[key]
	m.pending[key] = pendingWrite{since: int64(t), held: !due}
	return due
}

// pushed folds one decision in: a message starts a cooldown in slice at,
// (e) ActionNone starts none.
func (m *sliceModel) pushed(d Decision, at uint64) {
	delete(m.pending, d.Key)
	m.cool(d.Key, at, d.Action != ActionNone)
}

// check holds the decisions of a FlushSlice(t/sub) made at tick t against
// the model and folds them in; exact says the caller has flushed whenever
// the engine's contract said it must.
func (m *sliceModel) check(t *testing.T, tick uint64, got []Decision, exact bool) {
	t.Helper()
	n := tick / sub
	due := map[string]bool{}
	for key := range m.pending {
		if last, pushed := m.lastPush[key]; !pushed || last+Slices <= n {
			due[key] = true
		}
	}
	for _, d := range got {
		last, pushed := m.lastPush[d.Key]
		w, dirty := m.pending[d.Key]
		switch {
		case !dirty:
			t.Fatalf("tick %d: %q pushed without an uncovered write", tick, d.Key)
		case pushed && n-last < Slices: // (b): two messages are more than Slices-1 slices apart
			t.Fatalf("tick %d: %q pushed in slice %d, its cooldown began in slice %d", tick, d.Key, n, last)
		case exact && tick-uint64(w.since) > Slices*sub: // (a): T is strict
			t.Fatalf("tick %d: %q write of tick %d waited %d ticks, T is %d", tick, d.Key, w.since, tick-uint64(w.since), Slices*sub)
		case d.Since != w.since || d.Held != w.held:
			t.Fatalf("tick %d: %q decision %+v, oldest uncovered write %+v", tick, d.Key, d, w)
		}
		delete(due, d.Key)
		m.pushed(d, n)
	}
	for key := range due { // (c): inside a slice or at its boundary, exactly the due keys
		t.Fatalf("tick %d: %q (read: %v) dirty since tick %d, cooldown began in slice %d, was not pushed", tick, key, m.read[key], m.pending[key].since, m.lastPush[key])
	}
	for last := range m.cooling {
		if last+Slices <= n {
			delete(m.cooling, last) // the engine has let go of these keys
		}
	}
	m.prev = n
}

// idle fails unless the engine holds nothing: no dirty key, no cooling
// key, no wheel entry.
func idle(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	left := len(e.keys) + len(e.ready) + e.held
	for _, b := range e.wheel {
		left += len(b)
	}
	if left != 0 {
		t.Fatalf("engine not empty %d slices after the last write: keys %d ready %d held %d wheel %v",
			2*Slices, len(e.keys), len(e.ready), e.held, e.wheel)
	}
}

// TestFlushSliceProperties drives the slice-number API with seeded random
// write schedules over thousands of keys — no wall clock — and holds every
// flush, and every write's flush-now bit, against sliceModel. The caller is
// the store's flusher restated: it flushes at once when a write asks (or a
// few ticks later, or — declining the kick — at the next boundary), at
// every boundary while the engine reported a key pending at the flush
// before, and, as a heartbeat, T after its last flush. "sparse" writes a few
// keys, half of them never read, into an engine that is empty most of the
// time; "skips" also has the caller miss boundaries and force whole
// Flushes; "dedupe" runs an always-invalidate policy with occasional
// refills, so most decisions are ActionNone.
func TestFlushSliceProperties(t *testing.T) {
	const keys, slices = 3000, 1000
	for _, tc := range []struct {
		name          string
		costs         costmodel.Costs
		writes        int // per tick, at most
		skips, refill bool
	}{
		{name: "steady", costs: costmodel.Fixed(2, 0.5, 1), writes: 80},
		{name: "sparse", costs: costmodel.Fixed(2, 0.5, 1)},
		{name: "skips", costs: costmodel.Fixed(2, 0.5, 1), writes: 80, skips: true},
		{name: "dedupe", costs: costmodel.Fixed(2, 0.5, 10), writes: 80, refill: true},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := xrand.New(seed, 21)
				zipf := xrand.NewZipf(rng, 1.1, keys)
				// An exact tracker: a sketch may count a read for a key that
				// had none, and the model could not tell which.
				e := NewEngine(Config{Costs: tc.costs, Tracker: sketch.NewExact()})
				m := newSliceModel()
				var (
					out                 []Decision
					sent, none, leading int
					tick, flushed, kick uint64 // now; the last flush; when a due write's flush is taken (0: none owed)
					boundary, exact     = false, true
					sawDue, sawIdle     bool
				)
				flush := func() {
					out = e.FlushSlice(tick/sub, out[:0])
					m.check(t, tick, out, exact)
					for _, d := range out {
						switch {
						case d.Action == ActionNone:
							none++
						case tick%sub != 0 && !d.Held:
							leading++
							fallthrough
						default:
							sent++
						}
					}
					if got := e.DirtyCount(); got != len(m.pending) {
						t.Fatalf("tick %d: DirtyCount = %d, model has %d", tick, got, len(m.pending))
					}
					if (len(m.pending) > 0) && !e.Pending() {
						t.Fatalf("tick %d: %d keys dirty and Pending is false", tick, len(m.pending))
					}
					flushed, kick, boundary = tick, 0, e.Pending()
				}
				write := func() {
					key := keyOf(zipf.Sample())
					if rng.Bool(0.02) || (tc.writes == 0 && rng.Bool(0.5)) {
						key = fmt.Sprintf("fresh-%d-%d", tick, rng.Intn(1<<30))
					}
					// An engine that held nothing asks too: nobody may be
					// watching the boundaries.
					got, want := false, m.empty()
					sawIdle = sawIdle || want
					if rng.Bool(0.2) { // the slice-taking form reports the OR
						batch := []string{key, keyOf(zipf.Sample()), keyOf(zipf.Sample())}
						got = e.ObserveWritesAt(batch, int64(tick))
						for _, k := range batch {
							want = m.write(k, tick) || want
						}
					} else {
						got, want = e.ObserveWriteAt(key, int64(tick)), m.write(key, tick) || want
					}
					if got != want {
						t.Fatalf("tick %d: write of %q asked for a flush: %v, model says %v", tick, key, got, want)
					}
					if got && kick == 0 {
						sawDue = true
						switch {
						case rng.Bool(0.7):
							kick = tick // at once
						case rng.Bool(0.5):
							kick = tick + uint64(rng.Intn(sub)) // the floor
						default:
							boundary = true // declined: the boundary, then
						}
					}
				}
				step := func(writing bool) {
					tick++
					if writing && tc.skips && rng.Bool(0.03) { // the caller stalls, up to 2·T
						tick += uint64(rng.Intn(2*Slices*sub) + 1)
						exact = false
					}
					if writing {
						n := 0
						if tc.writes > 0 {
							n = rng.Intn(tc.writes)
						} else if rng.Bool(0.03) {
							n = 1
						}
						for ; n > 0; n-- {
							write()
						}
						var reads []ReadCount
						for r := rng.Intn(2 + tc.writes/3); r > 0; r-- {
							key := keyOf(zipf.Sample())
							reads = append(reads, ReadCount{key, uint32(rng.Intn(3))}) // 0: not a read
							m.read[key] = m.read[key] || reads[len(reads)-1].N > 0
						}
						e.ObserveReads(reads)
						if tc.refill && rng.Bool(0.1) {
							e.NoteFilled(keyOf(zipf.Sample()))
						}
						if tc.skips && rng.Bool(0.005) {
							// Flush ends every cooldown and drains everything;
							// its own cooldowns start at the last slice flushed.
							clear(m.lastPush)
							clear(m.cooling)
							for _, d := range e.Flush() {
								if _, dirty := m.pending[d.Key]; !dirty {
									t.Fatalf("Flush pushed %q, which is not dirty", d.Key)
								}
								m.pushed(d, m.prev)
							}
							if len(m.pending) != 0 || e.DirtyCount() != 0 {
								t.Fatalf("Flush left %d keys dirty (model %d)", e.DirtyCount(), len(m.pending))
							}
						}
					}
					if tick-flushed >= Slices*sub || (kick != 0 && kick <= tick) || (boundary && tick%sub == 0) {
						flush()
					}
					// Obligations met from here on, whatever was skipped before:
					// a stall is over once a flush has followed it.
					exact = exact || flushed == tick
				}
				for tick < slices*sub {
					step(true)
				}
				// (d) nothing leaks: Slices slices after the last write
				// every write is covered, and Slices slices after that
				// the cooldowns of the last pushes are over too.
				for end := tick + 2*Slices*sub + 1; tick < end; {
					if tick == end-Slices*sub-1 && len(m.pending) != 0 {
						t.Fatalf("%d writes not covered %d slices after the last", len(m.pending), Slices)
					}
					step(false)
				}
				idle(t, e)
				if e.Pending() {
					t.Fatal("an empty engine reports a key pending")
				}
				switch {
				case sent == 0 || !sawDue || leading == 0:
					t.Fatalf("schedule exercised nothing: %d messages, %d of them mid-slice at once, due-now seen: %v", sent, leading, sawDue)
				case tc.refill && none == 0:
					t.Fatal("schedule deduplicated nothing")
				case tc.writes == 0 && !sawIdle:
					t.Fatal("the sparse schedule never wrote into an empty engine")
				}
			})
		}
	}
}

// TestFlushAllocationPin: the flush path runs per write-driven wake-up, up
// to a thousand times a second, so a flush with nothing due must allocate
// nothing, and one that pushes k keys a constant (none, once the wheel and
// the caller's slice have grown).
func TestFlushAllocationPin(t *testing.T) {
	e := NewEngine(Config{})
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = keyOf(i)
		if i%2 == 0 {
			e.ObserveRead(keys[i]) // half go out at once, half are held for want of a reader
		}
	}
	out := make([]Decision, 0, len(keys))
	var n uint64
	busy := func() {
		for _, k := range keys {
			e.ObserveWriteAt(k, int64(n))
		}
		for i := 0; i < 2*Slices; i++ { // time for both halves to go out and cool down
			n++
			out = e.FlushSlice(n, out[:0])
		}
	}
	for i := 0; i < 2*Slices; i++ {
		busy() // grow every wheel bucket and the tracker
	}
	if got := testing.AllocsPerRun(50, busy); got > 1 {
		t.Errorf("%d slices pushing %d keys allocate %.1f objects, want at most 1", 2*Slices, len(keys), got)
	}
	if got := testing.AllocsPerRun(100, func() { n++; out = e.FlushSlice(n, out[:0]) }); got != 0 {
		t.Errorf("an idle slice allocates %.1f objects, want 0", got)
	}
	// The one-element forms are the slice-taking ones over a literal, which
	// must stay on the stack.
	if got := testing.AllocsPerRun(100, func() { e.ObserveReadN(keys[0], 2); e.ObserveWritesAt(keys[:16], int64(n)) }); got != 0 {
		t.Errorf("observing a read and a 16-key write allocates %.1f objects, want 0", got)
	}
}
