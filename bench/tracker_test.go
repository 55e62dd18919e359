package main

import (
	"testing"
	"time"
)

// A write becomes the late floor once its ack is older than contractSlack
// and the lost floor once it is older than lostAfter; acks that arrive
// while an earlier one is still ageing never raise a floor early.
func TestTrackerFloors(t *testing.T) {
	tk := newTracker(1)
	tk.preloaded(0, 3)
	t0 := time.Now()
	tk.acked(0, 5, t0)
	tk.acked(0, 6, t0.Add(contractSlack/2))

	for _, c := range []struct {
		after time.Duration
		want  expected
	}{
		{0, expected{lost: 3, late: 3, latest: 6}},
		{contractSlack + time.Millisecond, expected{lost: 3, late: 5, latest: 6}},
		{lostAfter + time.Millisecond, expected{lost: 5, late: 5, latest: 6}},
	} {
		if got := tk.expect(0, t0.Add(c.after)); got != c.want {
			t.Errorf("read sent %v after the first ack: got %+v, want %+v", c.after, got, c.want)
		}
	}

	// The next ack after the ageing one has settled takes its place.
	tk.acked(0, 7, t0.Add(2*contractSlack))
	if got, want := tk.expect(0, t0.Add(3*contractSlack+time.Millisecond)), (expected{lost: 3, late: 7, latest: 7}); got != want {
		t.Errorf("after a second settled ack: got %+v, want %+v", got, want)
	}
}
