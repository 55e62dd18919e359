package proto

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// encodeSeed renders m as one frame, failing the calling fuzz setup on
// encode errors so bad seeds are caught at `go test` time.
func encodeSeed(f *testing.F, m *Msg) []byte {
	f.Helper()
	b, err := AppendFrame(nil, m)
	if err != nil {
		f.Fatalf("seed encode %v: %v", m.Type, err)
	}
	return b
}

// FuzzReadMsg feeds arbitrary byte soup to the reader. The contract
// under test: ReadMsgInto never panics and never over-reads — it
// consumes exactly the frames it accepts, errors cleanly on everything
// else (ErrMalformed / ErrFrameTooLarge / io.EOF family), and any frame
// it does accept re-encodes, so pooled-Msg reuse after a parse cannot
// leak malformed state back onto the wire.
func FuzzReadMsg(f *testing.F) {
	// Valid frames, alone and concatenated, so mutation starts near the
	// accept/reject boundary.
	get := encodeSeed(f, &Msg{Type: MsgGet, Seq: 1, Key: "user:42"})
	put := encodeSeed(f, &Msg{Type: MsgPut, Seq: 2, Key: "k", Value: []byte("v")})
	batch := encodeSeed(f, &Msg{Type: MsgBatch, Epoch: 7, Ops: []BatchOp{
		{Kind: BatchInvalidate, Key: "a"},
		{Kind: BatchUpdate, Key: "b", Version: 9, Value: []byte("new")},
	}})
	stats := encodeSeed(f, &Msg{Type: MsgStatsResp, Seq: 3, Stats: map[string]uint64{"hits": 5}})
	ring := encodeSeed(f, &Msg{Type: MsgRingResp, Seq: 4, Epoch: 3, Version: 128,
		Replicas: 2, Nodes: []string{"a:1", "b:2"}})
	traced := encodeSeed(f, &Msg{Type: MsgGet, Seq: 5, Key: "user:42",
		Trace: &Trace{ID: 0xfeedface}})
	tracedResp := encodeSeed(f, &Msg{Type: MsgGetResp, Seq: 5, Status: StatusOK,
		Version: 7, Value: []byte("v"),
		Trace: &Trace{ID: 0xfeedface, Spans: []Span{
			{Node: "store", Start: 1, Dur: 2},
			{Node: "cache", Start: 3, Dur: 4},
		}}})
	mget := encodeSeed(f, &Msg{Type: MsgMGet, Seq: 6, Keys: []string{"a", "b", "c"}})
	mfill := encodeSeed(f, &Msg{Type: MsgMFill, Seq: 7, Keys: []string{"x"}})
	mgetResp := encodeSeed(f, &Msg{Type: MsgMGetResp, Seq: 6, Ops: []BatchOp{
		{Kind: BatchUpdate, Key: "a", Version: 3, Value: []byte("va")},
		{Kind: BatchInvalidate, Key: "b"},
	}})
	mput := encodeSeed(f, &Msg{Type: MsgMPut, Seq: 8, Ops: []BatchOp{
		{Kind: BatchUpdate, Key: "k1", Value: []byte("v1")},
		{Kind: BatchUpdate, Key: "k2", Value: []byte("v2")},
	}})
	mputResp := encodeSeed(f, &Msg{Type: MsgMPutResp, Seq: 8, Ops: []BatchOp{
		{Kind: BatchUpdate, Key: "k1", Version: 4},
		{Kind: BatchInvalidate, Key: "k2"},
	}})
	tracedMGet := encodeSeed(f, &Msg{Type: MsgMGet, Seq: 9, Keys: []string{"a", "b"},
		Trace: &Trace{ID: 0xdecafbad}})
	tracedMGetResp := encodeSeed(f, &Msg{Type: MsgMGetResp, Seq: 9,
		Ops: []BatchOp{{Kind: BatchUpdate, Key: "a", Version: 1, Value: []byte("v")}},
		Trace: &Trace{ID: 0xdecafbad, Spans: []Span{
			{Node: "store-a", Start: 1, Dur: 5},
			{Node: "store-b", Start: 2, Dur: 3},
		}}})
	f.Add(get)
	f.Add(put)
	f.Add(batch)
	f.Add(append(append([]byte(nil), get...), put...))
	f.Add(append(append([]byte(nil), batch...), stats...))
	f.Add(ring)
	f.Add(traced)
	f.Add(tracedResp)
	f.Add(append(append([]byte(nil), traced...), get...))
	f.Add(mget)
	f.Add(mfill)
	f.Add(mgetResp)
	f.Add(mput)
	f.Add(mputResp)
	f.Add(tracedMGet)
	f.Add(tracedMGetResp)
	f.Add(append(append([]byte(nil), mget...), mgetResp...))
	// Malformed shapes the unit tests pin individually.
	f.Add([]byte{0, 0, 0, 0})                               // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                   // oversize length prefix
	f.Add([]byte{0, 0, 0, 9, byte(MsgGet)})                 // truncated payload
	f.Add([]byte{0, 0, 0, 9, 0xee, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown type
	f.Add([]byte{})

	restore := encodeSeed(f, &Msg{Type: MsgRepWrite, Seq: 10, Version: 44,
		Ops:   []BatchOp{{Kind: BatchUpdate, Key: "k1", Version: 9, Value: []byte("v1")}},
		Freqs: []KeyFreq{{Key: "k1", Reads: 2, Writes: 5}}})
	fence := encodeSeed(f, &Msg{Type: MsgRepWrite, Seq: 11, Version: 44})
	f.Add(restore)
	f.Add(append(append([]byte(nil), restore...), fence...))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			m := GetMsg()
			err := r.ReadMsgInto(m)
			if err != nil {
				PutMsg(m)
				// Errors must be the documented framing errors or a
				// truncation surfaced as an EOF-family read error —
				// anything else is a new failure mode escaping the
				// reader's contract.
				if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooLarge) &&
					!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			// An accepted frame must re-encode: decode-side validation
			// may not be weaker than encode-side, or a relay that parses
			// and re-frames (the store's forwarding path) could fail on
			// traffic it already accepted.
			if _, reErr := AppendFrame(nil, m); reErr != nil {
				t.Fatalf("accepted frame does not re-encode: %v (msg %v)", reErr, m.Type)
			}
			PutMsg(m)
		}
	})
}

// FuzzRoundTrip drives AppendFrame -> Reader with fuzzed field values
// and checks the loop is lossless for every input the encoder accepts.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), "user:42", []byte("hello"), uint64(99))
	f.Add(uint64(0), "", []byte(nil), uint64(0))
	f.Add(uint64(1<<63), "k\x00\xffkey", bytes.Repeat([]byte{0xab}, 1024), uint64(1<<40))

	f.Fuzz(func(t *testing.T, seq uint64, key string, value []byte, version uint64) {
		m := &Msg{Type: MsgPut, Seq: seq, Key: key, Value: value, Version: version}
		frame, err := AppendFrame(nil, m)
		if err != nil {
			// Over-limit key/value: rejection is the correct outcome,
			// but it must leave no partial frame behind.
			if len(frame) != 0 {
				t.Fatalf("encode error %v left %d partial bytes", err, len(frame))
			}
			return
		}
		r := NewReader(bytes.NewReader(frame))
		got := GetMsg()
		defer PutMsg(got)
		if err := r.ReadMsgInto(got); err != nil {
			t.Fatalf("decode of freshly encoded frame: %v", err)
		}
		if got.Type != MsgPut || got.Seq != seq || got.Key != key || !bytes.Equal(got.Value, value) {
			t.Fatalf("round trip mismatch: got %+v", got)
		}
		// Exactly one frame: the reader must not manufacture data past
		// the bytes it was given.
		if err := r.ReadMsgInto(got); !errors.Is(err, io.EOF) {
			t.Fatalf("expected EOF after single frame, got %v", err)
		}

		// The positional answers: the key travels as its digest only.
		for _, typ := range []MsgType{MsgMGetResp, MsgMPutResp} {
			frame, err := AppendFrame(nil, &Msg{Type: typ, Seq: seq,
				Ops: []BatchOp{{Kind: BatchUpdate, Key: key, Value: value, Version: version}}})
			if err != nil {
				t.Fatalf("%v with a key/value PUT accepted does not encode: %v", typ, err)
			}
			if err := NewReader(bytes.NewReader(frame)).ReadMsgInto(got); err != nil {
				t.Fatalf("decode of freshly encoded %v: %v", typ, err)
			}
			if got.Type != typ || got.Seq != seq || got.Digest != KeysDigest([]string{key}) || len(got.Ops) != 1 ||
				got.Ops[0].Key != "" || got.Ops[0].Version != version || !bytes.Equal(got.Ops[0].Value, value) {
				t.Fatalf("%v round trip mismatch: got %+v", typ, got)
			}
		}

		// The same fields as the restore push, each part alone and all
		// together: ops only, fence only, ops + freqs + fence.
		ops := []BatchOp{{Kind: BatchUpdate, Key: key, Value: value, Version: version}}
		freqs := []KeyFreq{{Key: key, Reads: seq, Writes: version}}
		for _, m := range []*Msg{
			{Type: MsgRepWrite, Seq: seq, Ops: ops},
			{Type: MsgRepWrite, Seq: seq, Version: version},
			{Type: MsgRepWrite, Seq: seq, Ops: ops, Freqs: freqs, Version: version},
		} {
			frame, err := AppendFrame(nil, m)
			if err != nil {
				t.Fatalf("restore push with a key/value PUT accepted does not encode: %v", err)
			}
			if err := NewReader(bytes.NewReader(frame)).ReadMsgInto(got); err != nil {
				t.Fatalf("decode of freshly encoded restore push: %v", err)
			}
			if got.Type != MsgRepWrite || got.Seq != seq || got.Version != m.Version ||
				len(got.Ops) != len(m.Ops) || len(got.Freqs) != len(m.Freqs) {
				t.Fatalf("restore push round trip mismatch: got %+v, want %+v", got, m)
			}
			if len(m.Ops) == 1 && (got.Ops[0].Key != key || got.Ops[0].Version != version || !bytes.Equal(got.Ops[0].Value, value)) {
				t.Fatalf("restore push op mismatch: got %+v", got.Ops[0])
			}
			if len(m.Freqs) == 1 && got.Freqs[0] != freqs[0] {
				t.Fatalf("restore push freq mismatch: got %+v", got.Freqs[0])
			}
		}
	})
}
