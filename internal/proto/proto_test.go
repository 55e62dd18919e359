package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func roundTrip(t *testing.T, m *Msg) *Msg {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteMsg(m); err != nil {
		t.Fatalf("write %v: %v", m.Type, err)
	}
	r := NewReader(&buf)
	got, err := r.ReadMsg()
	if err != nil {
		t.Fatalf("read %v: %v", m.Type, err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []*Msg{
		{Type: MsgGet, Seq: 1, Key: "user:42"},
		{Type: MsgFill, Seq: 2, Key: "page:home"},
		{Type: MsgSubscribe, Seq: 3, Key: "cache-a"},
		{Type: MsgGetResp, Seq: 4, Status: StatusOK, Version: 99, Value: []byte("hello")},
		{Type: MsgGetResp, Seq: 5, Status: StatusNotFound, Value: []byte{}},
		{Type: MsgPut, Seq: 6, Key: "k", Value: []byte("v")},
		{Type: MsgPutResp, Seq: 7, Status: StatusOK, Version: 100},
		{Type: MsgSubResp, Seq: 8, Epoch: 41},
		{Type: MsgSubResp, Seq: 8, Epoch: 41, Key: "shard-1"},
		{Type: MsgBatch, Seq: 0, Epoch: 42, Ops: []BatchOp{
			{Kind: BatchInvalidate, Key: "a"},
			{Kind: BatchUpdate, Key: "b", Version: 7, Value: []byte("new")},
		}},
		{Type: MsgReadReport, Seq: 9, Reports: []ReadReport{
			{Key: "a", Count: 3}, {Key: "b", Count: 1},
		}},
		{Type: MsgStats, Seq: 10},
		{Type: MsgStatsResp, Seq: 11, Stats: map[string]uint64{"hits": 5, "misses": 2}},
		{Type: MsgPing, Seq: 12},
		{Type: MsgPong, Seq: 13},
		{Type: MsgErr, Seq: 14, Err: "boom"},
		{Type: MsgRingGet, Seq: 15},
		{Type: MsgRingResp, Seq: 16, Epoch: 3, Stamp: 1234567890,
			Version: 128, Replicas: 2, Nodes: []string{"a:1", "b:2"}},
		{Type: MsgRingResp, Seq: 16, Epoch: 1, Version: 64, Nodes: []string{"a:1"}},
		{Type: MsgJoin, Seq: 17, Key: "c:3"},
		{Type: MsgDrain, Seq: 18, Key: "b:2"},
		{Type: MsgHeartbeat, Seq: 18, Key: "b:2", Version: 4711, Epoch: 3},
		{Type: MsgVote, Seq: 30, Epoch: 7, Version: 12, Stamp: 6, Key: "c:9301"},
		{Type: MsgVoteResp, Seq: 30, Epoch: 7, Status: StatusOK},
		{Type: MsgVoteResp, Seq: 31, Epoch: 9, Status: StatusError},
		{Type: MsgAppend, Seq: 32, Epoch: 7, Version: 12, Key: "c:9301",
			Value: []byte(`{"index":13,"term":7}`)},
		{Type: MsgAppend, Seq: 33, Epoch: 7, Version: 13, Key: "c:9301"},
		{Type: MsgAppendResp, Seq: 32, Epoch: 7, Version: 13, Status: StatusOK},
		{Type: MsgAdopt, Seq: 19, Epoch: 4, Version: 128, Replicas: 2, Key: "c:3",
			Nodes: []string{"a:1", "b:2", "c:3"}, Donors: []string{"a:1", "b:2"}},
		{Type: MsgRepSync, Seq: 19, Epoch: 4, Version: 128, Replicas: 3, Key: "c:3",
			Nodes: []string{"a:1", "b:2", "c:3"}, Donors: []string{"a:1"}},
		// The one restore push: ops only (a stream slice, a write tail),
		// fence only (forward switch, failover), and all three parts.
		{Type: MsgRepWrite, Seq: 23, Ops: []BatchOp{
			{Kind: BatchUpdate, Key: "k1", Version: 9, Value: []byte("v1")},
			{Kind: BatchUpdate, Key: "k2", Version: 12, Value: []byte("v2")},
		}},
		{Type: MsgRepWrite, Seq: 24, Version: 44},
		{Type: MsgRepWrite, Seq: 25, Version: 44, Ops: []BatchOp{
			{Kind: BatchUpdate, Key: "k1", Version: 9, Value: []byte("v1")},
		}, Freqs: []KeyFreq{{Key: "k1", Reads: 2, Writes: 5}}},
		{Type: MsgMigrate, Seq: 20, Epoch: 4, Version: 128, Key: "c:3",
			Nodes: []string{"a:1", "b:2", "c:3"}},
		{Type: MsgMigrateDone, Seq: 20, Version: 44, Freqs: []KeyFreq{
			{Key: "k1", Reads: 10, Writes: 3}, {Key: "k2", Reads: 0, Writes: 7},
		}},
		{Type: MsgMigrateAck, Seq: 21},
		{Type: MsgRelease, Seq: 22, Epoch: 4, Version: 128, Replicas: 2, Key: "a:1",
			Nodes: []string{"a:1", "b:2", "c:3"}},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Normalize empty-vs-nil slices for comparison.
		if len(got.Value) == 0 {
			got.Value = nil
		}
		if len(got.Ops) == 0 {
			got.Ops = nil
		}
		if len(got.Freqs) == 0 {
			got.Freqs = nil
		}
		want := *m
		if len(want.Value) == 0 {
			want.Value = nil
		}
		gotCopy := *got
		if !reflect.DeepEqual(&gotCopy, &want) {
			t.Errorf("%v round trip:\n got %+v\nwant %+v", m.Type, gotCopy, want)
		}
	}
}

func TestMultipleFramesOnOneConnection(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := uint64(0); i < 10; i++ {
		if err := w.WriteMsg(&Msg{Type: MsgPing, Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := uint64(0); i < 10; i++ {
		m, err := r.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq != i {
			t.Errorf("frame %d has seq %d", i, m.Seq)
		}
	}
	if _, err := r.ReadMsg(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	r := NewReader(bytes.NewReader(hdr[:]))
	if _, err := r.ReadMsg(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestShortFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 3) // < 9 byte minimum
	buf.Write(hdr[:])
	buf.Write([]byte{1, 2, 3})
	r := NewReader(&buf)
	if _, err := r.ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestTruncatedPayloadRejected(t *testing.T) {
	// A GET whose declared key length exceeds the payload.
	var buf bytes.Buffer
	payload := []byte{byte(MsgGet), 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	r := NewReader(&buf)
	if _, err := r.ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteMsg(&Msg{Type: MsgPing, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Extend the ping frame with garbage and fix the length.
	raw := buf.Bytes()
	raw = append(raw, 0xAB)
	binary.BigEndian.PutUint32(raw[0:4], uint32(len(raw)-4))
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{250, 0, 0, 0, 0, 0, 0, 0, 1}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	r := NewReader(&buf)
	if _, err := r.ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
	w := NewWriter(io.Discard)
	if err := w.WriteMsg(&Msg{Type: MsgType(250)}); !errors.Is(err, ErrMalformed) {
		t.Errorf("write err = %v, want ErrMalformed", err)
	}
}

func TestBadBatchKindRejected(t *testing.T) {
	// Hand-encode a batch with kind 9.
	payload := []byte{byte(MsgBatch), 0, 0, 0, 0, 0, 0, 0, 0}
	payload = binary.BigEndian.AppendUint64(payload, 1) // epoch
	payload = binary.BigEndian.AppendUint32(payload, 1) // one op
	payload = append(payload, 9)                        // bad kind
	payload = append(payload, 0, 1, 'k')
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	r := NewReader(&buf)
	if _, err := r.ReadMsg(); !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestKeyTooLongRejected(t *testing.T) {
	w := NewWriter(io.Discard)
	err := w.WriteMsg(&Msg{Type: MsgGet, Key: strings.Repeat("k", MaxKey+1)})
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("err = %v, want ErrMalformed", err)
	}
}

func TestLargeBatch(t *testing.T) {
	ops := make([]BatchOp, 10000)
	for i := range ops {
		if i%2 == 0 {
			ops[i] = BatchOp{Kind: BatchInvalidate, Key: "key-inv"}
		} else {
			ops[i] = BatchOp{Kind: BatchUpdate, Key: "key-upd", Version: uint64(i), Value: []byte("value-bytes")}
		}
	}
	got := roundTrip(t, &Msg{Type: MsgBatch, Epoch: 3, Ops: ops})
	if len(got.Ops) != len(ops) {
		t.Fatalf("got %d ops", len(got.Ops))
	}
	if got.Ops[1].Version != 1 || string(got.Ops[1].Value) != "value-bytes" {
		t.Errorf("op[1] = %+v", got.Ops[1])
	}
}

// Any Get/Put message round-trips losslessly.
func TestPropRoundTrip(t *testing.T) {
	f := func(seq uint64, key string, value []byte) bool {
		if len(key) > MaxKey {
			key = key[:MaxKey]
		}
		m := &Msg{Type: MsgPut, Seq: seq, Key: key, Value: value}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteMsg(m); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadMsg()
		if err != nil {
			return false
		}
		return got.Seq == seq && got.Key == key && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Fuzz-ish robustness: random byte soup must never panic the reader.
func TestPropReaderNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		r := NewReader(bytes.NewReader(raw))
		for {
			_, err := r.ReadMsg()
			if err != nil {
				return true
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTypeAndStatusStrings(t *testing.T) {
	if MsgGet.String() != "GET" || MsgBatch.String() != "BATCH" {
		t.Error("message names wrong")
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type should stringify")
	}
	if StatusOK.String() != "ok" || StatusNotFound.String() != "not-found" ||
		StatusError.String() != "error" || Status(9).String() == "" {
		t.Error("status names wrong")
	}
}

func BenchmarkWriteGet(b *testing.B) {
	w := NewWriter(io.Discard)
	m := &Msg{Type: MsgGet, Seq: 1, Key: "user:123456"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.WriteMsg(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripBatch(b *testing.B) {
	ops := make([]BatchOp, 100)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchUpdate, Key: "key", Version: 1, Value: make([]byte, 128)}
	}
	m := &Msg{Type: MsgBatch, Epoch: 1, Ops: ops}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.WriteMsg(m); err != nil {
			b.Fatal(err)
		}
		if _, err := NewReader(&buf).ReadMsg(); err != nil {
			b.Fatal(err)
		}
	}
}

// The intern table is two-generation: a key seen at least once per
// generation keeps its one allocation across rollovers, colder keys are
// dropped, and the two generations together never exceed internLimit.
func TestInternSurvivesRollover(t *testing.T) {
	r := NewReader(nil)
	hot := []byte("hot-key")
	first := r.internString(hot)
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

	key := make([]byte, 0, 16)
	for i := 0; i < 5*internLimit; i++ {
		key = strconv.AppendInt(append(key[:0], "cold-"...), int64(i), 10)
		r.internString(key)
		if i%(internLimit/4) == 0 && !same(r.internString(hot), first) {
			t.Fatalf("hot key re-allocated after %d cold keys", i)
		}
		if n := len(r.intern) + len(r.internOld); n > internLimit {
			t.Fatalf("intern tables hold %d strings, bound is %d", n, internLimit)
		}
	}
	if !same(r.internString(hot), first) {
		t.Fatal("hot key re-allocated")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.internString(hot) }); allocs != 0 {
		t.Errorf("interning a resident key allocates %.1f objects", allocs)
	}
	// A key not seen for two whole generations is gone.
	if _, ok := r.intern["cold-0"]; ok {
		t.Error("cold-0 still in the young generation")
	}
	if _, ok := r.internOld["cold-0"]; ok {
		t.Error("cold-0 still in the old generation")
	}
}
