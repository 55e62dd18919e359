package main

import "testing"

func TestTraceIDNeverZero(t *testing.T) {
	if id := traceIDFrom([8]byte{}); id == 0 {
		t.Error("an all-zero draw produced trace ID 0, which the client reads as untraced")
	}
}
