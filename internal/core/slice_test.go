package core

import (
	"fmt"
	"testing"

	"freshcache/internal/costmodel"
	"freshcache/internal/sketch"
	"freshcache/internal/xrand"
)

// sliceModel is the flush rule restated without a wheel: a key with an
// uncovered write is due at slice n iff its last message went out at
// least Slices slices before n — where a key nobody has read by the first
// flush after its write is held as if a message had gone out at the flush
// before that one.
type sliceModel struct {
	pending  map[string]pendingWrite // key -> its oldest uncovered write
	lastPush map[string]uint64       // key -> slice its last message went out at
	read     map[string]bool         // keys read at least once
	prev     uint64                  // the last slice flushed
}

type pendingWrite struct {
	since int64 // the slice it was written in
	held  bool  // its key was cooling then, or unread at the next flush
}

func (m *sliceModel) write(key string, n uint64) {
	if _, dirty := m.pending[key]; !dirty {
		last, pushed := m.lastPush[key]
		m.pending[key] = pendingWrite{since: int64(n), held: pushed && m.prev < last+Slices}
	}
}

// pushed folds one decision in: a message starts a cooldown at slice at,
// (e) ActionNone starts none.
func (m *sliceModel) pushed(d Decision, at uint64) {
	delete(m.pending, d.Key)
	delete(m.lastPush, d.Key)
	if d.Action != ActionNone {
		m.lastPush[d.Key] = at
	}
}

// check holds FlushSlice(n)'s decisions against the model and folds them
// in; exact says the caller skipped no slice number before n.
func (m *sliceModel) check(t *testing.T, n uint64, got []Decision, exact bool) {
	t.Helper()
	due := map[string]bool{}
	for key, w := range m.pending {
		if !w.held && !m.read[key] && m.prev+Slices > n {
			m.pending[key] = pendingWrite{since: w.since, held: true}
			m.lastPush[key] = m.prev
		}
		if last, pushed := m.lastPush[key]; !pushed || last+Slices <= n {
			due[key] = true
		}
	}
	for _, d := range got {
		last, pushed := m.lastPush[d.Key]
		w, dirty := m.pending[d.Key]
		switch {
		case !dirty:
			t.Fatalf("slice %d: %q pushed without an uncovered write", n, d.Key)
		case pushed && n-last < Slices: // (b)
			t.Fatalf("slice %d: %q pushed again %d slices after slice %d", n, d.Key, n-last, last)
		case exact && n-uint64(w.since) >= Slices: // (a)
			t.Fatalf("slice %d: %q write of slice %d waited %d slices", n, d.Key, w.since, n-uint64(w.since))
		case d.Since != w.since || d.Held != w.held:
			t.Fatalf("slice %d: %q decision %+v, oldest uncovered write %+v", n, d.Key, d, w)
		}
		delete(due, d.Key)
		m.pushed(d, n)
	}
	for key := range due { // (c)
		t.Fatalf("slice %d: %q (read: %v) dirty since slice %d, last pushed at %d, was not pushed", n, key, m.read[key], m.pending[key].since, m.lastPush[key])
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
// flush against sliceModel. "skips" also has the caller skip slice numbers
// and force whole Flushes; "dedupe" runs an always-invalidate policy with
// occasional refills, so most decisions are ActionNone.
func TestFlushSliceProperties(t *testing.T) {
	const keys, slices = 3000, 1000
	for _, tc := range []struct {
		name          string
		costs         costmodel.Costs
		skips, refill bool
	}{
		{name: "steady", costs: costmodel.Fixed(2, 0.5, 1)},
		{name: "skips", costs: costmodel.Fixed(2, 0.5, 1), skips: true},
		{name: "dedupe", costs: costmodel.Fixed(2, 0.5, 10), refill: true},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := xrand.New(seed, 21)
				zipf := xrand.NewZipf(rng, 1.1, keys)
				// An exact tracker: a sketch may count a read for a key that
				// had none, and the model could not tell which.
				e := NewEngine(Config{Costs: tc.costs, Tracker: sketch.NewExact()})
				m := &sliceModel{pending: map[string]pendingWrite{}, lastPush: map[string]uint64{}, read: map[string]bool{}}
				var (
					out        []Decision
					sent, none int
					n          uint64
				)
				flush := func(exact bool) {
					out = e.FlushSlice(n, out[:0])
					m.check(t, n, out, exact)
					for _, d := range out {
						if d.Action == ActionNone {
							none++
						} else {
							sent++
						}
					}
					if got := e.DirtyCount(); got != len(m.pending) {
						t.Fatalf("slice %d: DirtyCount = %d, model has %d", n, got, len(m.pending))
					}
				}
				for step := 0; step < slices; step++ {
					exact := true
					n++
					if tc.skips && rng.Bool(0.1) {
						n += uint64(rng.Intn(2*Slices) + 1)
						exact = false
					}
					// The writes of the interval that ends at boundary n: a
					// Zipf head written many times per T, a tail written
					// less than once, and bursts of never-seen keys.
					for w := rng.Intn(300); w > 0; w-- {
						key := keyOf(zipf.Sample())
						if rng.Bool(0.02) {
							key = fmt.Sprintf("fresh-%d-%d", step, w)
						}
						e.ObserveWriteAt(key, int64(n))
						m.write(key, n)
					}
					for r := rng.Intn(100); r > 0; r-- {
						key := keyOf(zipf.Sample())
						e.ObserveRead(key)
						m.read[key] = true
					}
					if tc.refill && rng.Bool(0.3) {
						e.NoteFilled(keyOf(zipf.Sample()))
					}
					if tc.skips && rng.Bool(0.02) {
						// Flush ends every cooldown and drains everything;
						// its own cooldowns start at the last slice flushed.
						clear(m.lastPush)
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
					flush(exact)
				}
				// (d) nothing leaks: Slices slices after the last write
				// every write is covered, and Slices slices after that
				// the cooldowns of the last pushes are over too.
				for i := 0; i < 2*Slices; i++ {
					if i == Slices && len(m.pending) != 0 {
						t.Fatalf("%d writes not covered %d slices after the last", len(m.pending), Slices)
					}
					n++
					flush(true)
				}
				idle(t, e)
				if sent == 0 || (tc.refill && none == 0) {
					t.Fatalf("schedule exercised nothing: %d messages, %d deduplicated", sent, none)
				}
			})
		}
	}
}

// TestFlushAllocationPin: the flush path runs Slices times per T, so a
// slice with nothing due must allocate nothing, and a slice that pushes k
// keys a constant (none, once the wheel and the caller's slice have grown).
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
}
