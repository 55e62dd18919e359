package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Round trips for the multi-key message family, bare and with a trace
// block, since batched frames carry the optional trace the same way
// single-key ones do. The answers are positional: their ops come back
// without keys, and the digest of the keys they were encoded with in Digest.
func TestRoundTripMultiKey(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgMGet, Seq: 1, Keys: []string{"a", "b", "c"}},
		{Type: MsgMGet, Seq: 2, Keys: []string{"only"}},
		{Type: MsgMFill, Seq: 3, Keys: []string{"x", "y"}},
		{Type: MsgMGetResp, Seq: 4, Ops: []BatchOp{
			{Kind: BatchUpdate, Key: "a", Version: 7, Value: []byte("va")},
			{Kind: BatchInvalidate, Key: "b"},
			{Kind: BatchUpdate, Key: "c", Version: 9, Value: []byte("vc")},
		}},
		{Type: MsgMPut, Seq: 5, Ops: []BatchOp{
			{Kind: BatchUpdate, Key: "k1", Value: []byte("v1")},
			{Kind: BatchUpdate, Key: "k2", Value: []byte("v2")},
		}},
		{Type: MsgMPutResp, Seq: 6, Ops: []BatchOp{
			{Kind: BatchUpdate, Key: "k1", Version: 11},
			{Kind: BatchInvalidate, Key: "k2"}, // per-key upstream failure
		}},
		{Type: MsgMGet, Seq: 7, Keys: []string{"t1", "t2"},
			Trace: &Trace{ID: 0xdecafbad}},
		{Type: MsgMGetResp, Seq: 8,
			Ops: []BatchOp{{Kind: BatchUpdate, Key: "t1", Version: 2, Value: []byte("v")}},
			Trace: &Trace{ID: 0xdecafbad, Spans: []Span{
				{Node: "store-a", Start: 1, Dur: 5},
				{Node: "store-b", Start: 2, Dur: 3},
			}}},
		{Type: MsgMPut, Seq: 9,
			Ops:   []BatchOp{{Kind: BatchUpdate, Key: "k", Value: []byte("v")}},
			Trace: &Trace{ID: 1}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		for i := range got.Ops {
			if len(got.Ops[i].Value) == 0 {
				got.Ops[i].Value = nil
			}
		}
		want := *m
		want.Ops = append([]BatchOp(nil), m.Ops...)
		var keys []string
		for i := range want.Ops {
			if len(want.Ops[i].Value) == 0 {
				want.Ops[i].Value = nil
			}
			if m.Type == MsgMGetResp || m.Type == MsgMPutResp {
				keys, want.Ops[i].Key = append(keys, want.Ops[i].Key), ""
			}
		}
		if m.Type == MsgMGetResp || m.Type == MsgMPutResp {
			want.Digest = KeysDigest(keys)
		}
		gotCopy := *got
		if !reflect.DeepEqual(&gotCopy, &want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", m.Type, gotCopy, want)
		}
	}
}

// The digest a positional answer carries tells the keys it answers apart
// from other keys and from the same keys in another order, and the
// length prefix keeps where one key ends and the next begins.
func TestKeysDigestOrderAndBoundaries(t *testing.T) {
	sets := [][]string{
		nil, {""}, {"", ""}, {"a"}, {"a", "b"}, {"b", "a"}, {"ab"}, {"a", "c"},
		{"ab", "c"}, {"a", "bc"}, {"a", "b", "c"}, {"c", "b", "a"},
	}
	seen := map[uint64][]string{}
	for _, keys := range sets {
		d := KeysDigest(keys)
		if prev, dup := seen[d]; dup {
			t.Errorf("KeysDigest(%q) = KeysDigest(%q)", keys, prev)
		}
		seen[d] = keys
	}
	m := roundTrip(t, &Msg{Type: MsgMPutResp, Ops: []BatchOp{
		{Kind: BatchUpdate, Key: "a", Version: 1}, {Kind: BatchUpdate, Key: "b", Version: 2},
	}})
	if m.Digest != KeysDigest([]string{"a", "b"}) || m.Digest == KeysDigest([]string{"b", "a"}) {
		t.Errorf("MPUTRESP for a, b carries digest %x", m.Digest)
	}
}

// An empty key set round-trips (the client short-circuits zero-key
// batches, but the wire format must still be total).
func TestRoundTripEmptyMGet(t *testing.T) {
	got := roundTrip(t, &Msg{Type: MsgMGet, Seq: 1})
	if got.Type != MsgMGet || len(got.Keys) != 0 {
		t.Errorf("got %+v", got)
	}
}

// frameOf wraps a hand-built payload in a length prefix.
func frameOf(payload []byte) *Reader {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	return NewReader(&buf)
}

// An MGET whose declared key count exceeds MaxBatchOps is rejected
// before any allocation proportional to the claim.
func TestMGetKeyCountOverLimitRejected(t *testing.T) {
	payload := []byte{byte(MsgMGet), 0, 0, 0, 0, 0, 0, 0, 1}
	payload = binary.BigEndian.AppendUint32(payload, MaxBatchOps+1)
	if _, err := frameOf(payload).ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// An MGET whose key list is truncated mid-entry is malformed.
func TestMGetTruncatedKeysRejected(t *testing.T) {
	payload := []byte{byte(MsgMGet), 0, 0, 0, 0, 0, 0, 0, 1}
	payload = binary.BigEndian.AppendUint32(payload, 2) // claims two keys
	payload = append(payload, 0, 1, 'a')                // delivers one
	if _, err := frameOf(payload).ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// A multi-key response with an undefined op kind is malformed, same as
// the push-batch path.
func TestMGetRespBadKindRejected(t *testing.T) {
	payload := []byte{byte(MsgMGetResp), 0, 0, 0, 0, 0, 0, 0, 1}
	payload = binary.BigEndian.AppendUint64(payload, KeysDigest([]string{"k"}))
	payload = binary.BigEndian.AppendUint32(payload, 1)
	payload = append(payload, 7) // undefined kind
	if _, err := frameOf(payload).ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// Encoding more than MaxBatchOps keys is refused on the write side too.
func TestMGetEncodeOverLimitRejected(t *testing.T) {
	m := &Msg{Type: MsgMGet, Keys: make([]string, MaxBatchOps+1)}
	if _, err := AppendFrame(nil, m); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

// Pooled reuse: a large MGET's Keys capacity is kept and reused by the
// next decode on the same Msg, so a steady batch loop does not
// reallocate the key slice.
func TestReadMsgIntoReusesKeys(t *testing.T) {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "key-abcdefgh"
	}
	frame1, err := AppendFrame(nil, &Msg{Type: MsgMGet, Seq: 1, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	frame2, err := AppendFrame(nil, &Msg{Type: MsgMGet, Seq: 2, Keys: keys[:8]})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(append(append([]byte(nil), frame1...), frame2...)))
	var m Msg
	if err := r.ReadMsgInto(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Keys) != 64 {
		t.Fatalf("first decode got %d keys", len(m.Keys))
	}
	firstCap := cap(m.Keys)
	if err := r.ReadMsgInto(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Keys) != 8 {
		t.Fatalf("second decode got %d keys", len(m.Keys))
	}
	if cap(m.Keys) != firstCap {
		t.Errorf("second decode reallocated Keys: cap %d -> %d", firstCap, cap(m.Keys))
	}
}

// A steady stream of batches near the boundary between the two shared-frame
// size classes is encoded into the same pooled buffer every time. Both
// sizes used to change pools on every use — 16 × 4091 bytes is under
// smallFrame by its keys and values and over it with its op headers, and a
// buffer grown by append to hold 16 × 3800 bytes may end with a capacity
// past it — and the next batch regrew its frame from nothing.
func TestEncodeSharedSteadyBatchKeepsItsFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop objects")
	}
	for _, valueLen := range []int{3800, 4091} {
		ops := make([]BatchOp, 16)
		for i := range ops {
			ops[i] = BatchOp{Kind: BatchUpdate, Key: fmt.Sprintf("k-%02d", i), Version: 7, Value: make([]byte, valueLen)}
		}
		m := &Msg{Type: MsgMGetResp, Seq: 1, Ops: ops}
		encode := func() {
			f, err := EncodeShared(m, 1)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
		for i := 0; i < 10; i++ { // warm-up: the buffer grows once
			encode()
		}
		if allocs := testing.AllocsPerRun(200, encode); allocs != 0 {
			t.Errorf("16 × %d-byte batch: %.0f allocations per encode after warm-up, want 0", valueLen, allocs)
		}
	}
}
