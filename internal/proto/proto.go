// Package proto defines the binary wire protocol spoken between
// freshcache clients, cache nodes, the backing store, and the load
// balancer (Figure 4 of the paper).
//
// Every message is one length-prefixed frame:
//
//	u32  payload length (big-endian, excludes itself)
//	u8   message type (high bit: trace block present)
//	u64  sequence number (echoed in responses; 0 on pushes)
//	...  optional trace block (trace ID + per-hop spans), then the
//	     type-specific payload
//
// Strings and byte blobs are u16/u32 length-prefixed. The protocol is
// deliberately request/response plus one server-push stream (BATCH frames
// on subscribed connections) so a cache can apply invalidates and updates
// without polling. Frames are capped at MaxFrame to bound memory; a peer
// violating the cap is disconnected.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Protocol message types.
const (
	// MsgGet is a client read: Key set. The store observes it as a read
	// for the policy engine.
	MsgGet MsgType = iota + 1
	// MsgGetResp answers MsgGet/MsgFill: Status, Value, Version set.
	MsgGetResp
	// MsgPut is a client write: Key, Value set.
	MsgPut
	// MsgPutResp answers MsgPut: Status, Version set.
	MsgPutResp
	// MsgFill is a cache miss fill: like MsgGet but the store records a
	// cache fill (NoteFilled) instead of a client read, so read
	// statistics are not double counted with MsgReadReport.
	MsgFill
	// MsgSubscribe registers the connection for BATCH pushes: Key holds
	// the subscriber name. Answered with MsgSubResp carrying the current
	// epoch in Epoch and the store's shard identity in Key.
	MsgSubscribe
	// MsgSubResp acknowledges a subscription: Epoch is the store's
	// current batch epoch, Key its shard identity (so a subscriber
	// detects a different store taking over an address and resyncs).
	MsgSubResp
	// MsgBatch is a store→cache push with one interval's freshness
	// decisions: Epoch and Ops set.
	MsgBatch
	// MsgReadReport is a cache→store piggyback carrying per-key read
	// counts observed at the cache since the last report: Reports set.
	MsgReadReport
	// MsgStats requests counters; MsgStatsResp returns Stats.
	MsgStats
	MsgStatsResp
	// MsgPing/MsgPong are liveness probes.
	MsgPing
	MsgPong
	// MsgErr reports a request-level failure: Err set.
	MsgErr
	// MsgRingGet asks the cluster coordinator for the current store ring.
	MsgRingGet
	// MsgRingResp carries a versioned ring: Epoch is the monotonic ring
	// epoch, Nodes the store addresses, Version the virtual-node count,
	// and Stamp the publish time (unix nanoseconds). Also the response to
	// MsgJoin/MsgDrain, echoing the newly published ring.
	MsgRingResp
	// MsgJoin asks the coordinator to admit the store at Key into the
	// ring, migrating its key range from the current owners first.
	MsgJoin
	// MsgDrain asks the coordinator to remove the store at Key from the
	// ring, migrating its keys to the remaining owners first.
	MsgDrain
	// MsgAdopt is a coordinator→store command: adopt ownership under the
	// candidate ring (Epoch, Nodes, Version as in MsgRingResp; Key is the
	// target's own ring identity) by pulling the moved key range from
	// each address in Donors. Answered with MsgPong once adopted.
	MsgAdopt
	// MsgMigrate opens a key-range handoff on a dedicated connection:
	// the adopter at identity Key asks the receiving store to stream
	// every key it holds that the attached candidate ring (Epoch, Nodes,
	// Version) assigns to the adopter.
	MsgMigrate
	// MsgMigrateDone ends a range-transfer stream (the MsgRepWrite frames
	// answering MsgMigrate or MsgRepSync). It has MsgRepWrite's payload:
	// Freqs carries the sender tracker's per-key read/write counts for
	// the streamed keys (policy warm-start) and Version the sender's
	// global version counter.
	MsgMigrateDone
	// MsgMigrateAck is the adopter's confirmation that the handoff
	// stream is fully applied; the donor switches the moved range to
	// forwarding on receipt.
	MsgMigrateAck
	// MsgRelease is a coordinator→store command after a ring publish:
	// drop every key the new ring (Epoch, Nodes, Version, Replicas; Key
	// is the target's ring identity) no longer assigns to the target's
	// replica set and forward stragglers to the new owners. Answered
	// with MsgPong.
	MsgRelease
	// MsgHeartbeat is a store→coordinator liveness lease renewal: Key is
	// the store's advertised ring identity, Version its authority
	// version counter (the failure detector fences survivors past the
	// last reported counter of a dead store), and Epoch the store's
	// consecutive heartbeat-failure streak before this beat got through
	// (surfaced in coordinator stats). Answered with MsgRingResp
	// carrying the current published ring, so heartbeats double as ring
	// anti-entropy for stores that missed a release.
	MsgHeartbeat
	// MsgRepSync opens a replica bootstrap stream on a dedicated
	// connection: the replica at identity Key asks a primary (Donors[0])
	// to stream every key the attached ring (Epoch, Nodes, Version,
	// Replicas) assigns to that primary with the replica in its replica
	// set. The primary answers with MsgRepWrite frames and a final
	// MsgMigrateDone (tracker freqs + version counter); no ACK — there
	// is no ownership transfer.
	MsgRepSync
	// MsgRepWrite is the one restore push between stores, any part of it
	// optional: Ops carries entries (key, value, sender-assigned version)
	// applied under restore semantics — idempotent, never clobbering a
	// newer entry; Freqs the sender tracker's read/write counts for those
	// keys (banked, so a promoted replica's policy warm-starts); Version
	// a fence the receiver raises its version counter to. As a request —
	// a primary replicating accepted writes (the client's ack waits for
	// every replica's answer), a donor fencing the adopter and handing
	// over its write tail at the forward switch, the coordinator fencing
	// survivors at a failover — it is answered with MsgPong; inside a
	// range-transfer stream it is one unanswered slice of the range.
	MsgRepWrite
	// MsgVote is a coordinator candidate→peer leader-election request:
	// Epoch the candidate's term, Version/Stamp the index and term of its
	// last replicated-log entry (the voter grants only to a candidate
	// whose log is at least as up to date), Key its advertised address.
	MsgVote
	// MsgVoteResp answers MsgVote: Status OK grants the vote, Epoch
	// echoes the voter's current term so a stale candidate steps down.
	MsgVoteResp
	// MsgAppend is a coordinator leader→follower replication push and
	// leadership lease renewal: Epoch the leader's term, Key its
	// advertised address, Version the commit index, Value a JSON-encoded
	// replicated-log entry (empty for a pure lease heartbeat).
	MsgAppend
	// MsgAppendResp answers MsgAppend: Status OK acknowledges the entry
	// (or heartbeat), Epoch the follower's term, Version the index of
	// the follower's last accepted log entry.
	MsgAppendResp
	// MsgMGet is a multi-key client read: Keys set. One frame, one
	// sequence number, one demux wakeup for the whole key set — the
	// fixed per-op costs (frame header, seq rendezvous, lock
	// acquisitions) amortize across the batch.
	MsgMGet
	// MsgMGetResp answers MsgMGet/MsgMFill positionally: Digest (the
	// KeysDigest of the keys answered), then Ops, keyless, one per key in
	// request order — BatchUpdate (value, version) for a hit,
	// BatchInvalidate for not-found, so one missing key never fails it.
	MsgMGetResp
	// MsgMPut is a multi-key client write: Ops carries BatchUpdate
	// entries (key, value; the version field is ignored on requests).
	MsgMPut
	// MsgMPutResp answers MsgMPut the same way: BatchUpdate with the
	// assigned Version and an empty value, or BatchInvalidate for a key
	// whose write failed upstream.
	MsgMPutResp
	// MsgMFill is the batch analogue of MsgFill: a cache miss-fill for
	// several keys at once. Keys set; the store records cache fills
	// (NoteFilled) instead of client reads and answers with MsgMGetResp.
	MsgMFill
)

var msgNames = map[MsgType]string{
	MsgGet: "GET", MsgGetResp: "GETRESP", MsgPut: "PUT", MsgPutResp: "PUTRESP",
	MsgFill: "FILL", MsgSubscribe: "SUBSCRIBE", MsgSubResp: "SUBRESP",
	MsgBatch: "BATCH", MsgReadReport: "READREPORT",
	MsgStats: "STATS", MsgStatsResp: "STATSRESP",
	MsgPing: "PING", MsgPong: "PONG", MsgErr: "ERR",
	MsgRingGet: "RINGGET", MsgRingResp: "RINGRESP",
	MsgJoin: "JOIN", MsgDrain: "DRAIN", MsgAdopt: "ADOPT",
	MsgMigrate: "MIGRATE", MsgMigrateDone: "MIGRATEDONE", MsgMigrateAck: "MIGRATEACK",
	MsgRelease: "RELEASE", MsgHeartbeat: "HEARTBEAT",
	MsgRepSync: "REPSYNC", MsgRepWrite: "REPWRITE",
	MsgVote: "VOTE", MsgVoteResp: "VOTERESP",
	MsgAppend: "APPEND", MsgAppendResp: "APPENDRESP",
	MsgMGet: "MGET", MsgMGetResp: "MGETRESP",
	MsgMPut: "MPUT", MsgMPutResp: "MPUTRESP",
	MsgMFill: "MFILL",
}

// String returns the wire name of the message type.
func (t MsgType) String() string {
	if n, ok := msgNames[t]; ok {
		return n
	}
	return fmt.Sprintf("MSG(%d)", uint8(t))
}

// Status codes for responses.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusError
)

// String returns "ok", "not-found" or "error".
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// BatchKind discriminates ops inside a MsgBatch.
type BatchKind uint8

// Batch operation kinds: an invalidate carries only the key; an update
// carries the new value and version.
const (
	BatchInvalidate BatchKind = iota + 1
	BatchUpdate
)

// BatchOp is one freshness decision inside a batch push.
type BatchOp struct {
	Kind    BatchKind
	Key     string
	Value   []byte // updates only
	Version uint64 // updates only
}

// ReadReport carries one key's read count observed at a cache.
type ReadReport struct {
	Key   string
	Count uint32
}

// KeyFreq carries one key's tracker state across a migration: the read
// and write counts the donor's sketch had accumulated, replayed into
// the adopter's sketch so E[W] estimates survive the handoff.
type KeyFreq struct {
	Key    string
	Reads  uint64
	Writes uint64
}

// Msg is the decoded form of any protocol frame. Only the fields
// relevant to Type are meaningful; the rest are zero.
type Msg struct {
	Type    MsgType
	Seq     uint64
	Key     string
	Value   []byte
	Version uint64
	Status  Status
	Epoch   uint64
	Ops     []BatchOp
	Keys    []string // multi-key read key set (MsgMGet, MsgMFill)
	Digest  uint64   // KeysDigest of the keys a positional answer's Ops answer
	Reports []ReadReport
	Stats   map[string]uint64
	Err     string
	// Cluster control-plane fields (ring and migration messages).
	Nodes    []string  // ring node addresses
	Donors   []string  // migration donor / replication primary addresses
	Freqs    []KeyFreq // tracker warm-start stats (MsgMigrateDone, MsgRepWrite)
	Stamp    int64     // ring publish time, unix nanoseconds (MsgRingResp)
	Replicas uint32    // cluster replication factor R (ring messages)
	// Trace, when non-nil, marks the frame as traced: the encoder sets
	// traceFlag on the type byte and inserts the trace block after the
	// sequence number. Nil on every untraced frame (the common case).
	Trace *Trace
}

// Limits enforced on both sides of every connection.
const (
	// MaxFrame bounds one frame's payload.
	MaxFrame = 16 << 20
	// MaxKey bounds key length.
	MaxKey = 1 << 16
	// MaxBatchOps bounds the operations in one batch frame.
	MaxBatchOps = 1 << 20
)

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")
	ErrMalformed     = errors.New("proto: malformed frame")
)

// maxRetainedScratch bounds the per-connection buffer capacity retained
// across frames by Reader, Writer and WriteQueue bursts. Capacity above
// it (grown by a one-off near-MaxFrame frame) is dropped after use so a
// single giant frame no longer pins ~16MB for the connection's
// lifetime; the bound sits above the ~1MB migration chunk size so
// steady bulk streams still reuse their buffers.
const maxRetainedScratch = 4 << 20

// msgPool recycles Msg structs on the hot request/response path. A Msg
// is a fat struct (three slice headers, a map, several strings); at
// hundreds of thousands of ops/s the per-frame Msg allocation was the
// single largest line in the heap profile.
var msgPool = sync.Pool{New: func() any { return new(Msg) }}

// GetMsg returns a zeroed Msg from the pool.
func GetMsg() *Msg { return msgPool.Get().(*Msg) }

// PutMsg zeroes m and returns it to the pool; the caller must not touch
// m afterwards. Data previously reachable from m (a Value slice handed
// to a caller, a Nodes list kept by a ring snapshot) stays valid: PutMsg
// drops m's references, it does not recycle backing arrays.
func PutMsg(m *Msg) {
	if m == nil {
		return
	}
	*m = Msg{}
	msgPool.Put(m)
}

// SharedFrame is a pre-encoded wire frame shared by several writers —
// the store's flusher encodes one epoch batch and hands the same bytes
// to every subscriber queue, so fan-out costs one memcpy per subscriber
// instead of one encode. Frames are refcounted and pooled: every queue
// push holds one reference, and the consuming WriteQueue (or the
// failure path that abandons the push) releases it once the bytes are
// on the wire. Bytes is a borrowed view, valid until the holder's
// Release.
type SharedFrame struct {
	b    []byte
	refs atomic.Int32
}

// Frames are pooled in two size classes. A store's epoch batches run to
// megabytes while a proxy's relayed responses are a few kilobytes, and
// where both live in one process (tests, the benchmark) a single pool has
// them trade buffers: every small response in flight pins a recycled
// megabyte frame, and the flusher regrows a small one each epoch.
const smallFrame = 64 << 10

var framePools [2]sync.Pool // by capacity: up to smallFrame, and beyond

func framePool(size int) *sync.Pool {
	if size <= smallFrame {
		return &framePools[0]
	}
	return &framePools[1]
}

// What a frame holds beyond its keys and values: opHeader per update op
// (kind, key length, version, value length), frameHeader for everything in
// front of the payload's variable part (a trace block, rare, is not counted:
// the buffer grows once to fit it).
const (
	opHeader    = 1 + 2 + 8 + 4
	frameHeader = 64
)

// EncodeShared encodes m once into a pooled frame carrying refs
// references.
func EncodeShared(m *Msg, refs int) (*SharedFrame, error) {
	// The class comes from an upper estimate of a value's or a batch's
	// frame, op headers included — across a few thousand small ops they
	// outweigh the payload. A small frame's buffer is made that size at once:
	// grown by append it could end past smallFrame, be re-filed in the other
	// class on Release, and the next batch regrow its frame from nothing.
	size := frameHeader + len(m.Value)
	for i := 0; i < len(m.Ops) && size <= smallFrame; i++ {
		size += opHeader + len(m.Ops[i].Key) + len(m.Ops[i].Value)
	}
	f, _ := framePool(size).Get().(*SharedFrame)
	if f == nil {
		f = new(SharedFrame)
	}
	if size <= smallFrame && cap(f.b) < size {
		f.b = make([]byte, 0, size)
	}
	b, err := AppendFrame(f.b[:0], m)
	f.b = b
	if err != nil {
		framePool(cap(b)).Put(f)
		return nil, err
	}
	f.refs.Store(int32(refs))
	return f, nil
}

// EncodeNow encodes m, an answer aliasing buffers valid only during the
// call, at once into a pooled frame; one that outgrows MaxFrame (a
// near-limit value plus a hop's span) becomes a MsgErr carrying the error.
func EncodeNow(m *Msg) (Outgoing, error) {
	f, err := EncodeShared(m, 1)
	if err != nil {
		return Outgoing{Msg: &Msg{Type: MsgErr, Seq: m.Seq, Err: err.Error()}}, err
	}
	return Outgoing{Raw: f}, nil
}

// Bytes returns the encoded frame. The slice is borrowed: the caller
// must not mutate it and must not use it after its Release.
func (f *SharedFrame) Bytes() []byte { return f.b }

// Retain adds n references.
func (f *SharedFrame) Retain(n int32) { f.refs.Add(n) }

// Release drops one reference; the last release recycles the frame.
// Oversized one-off frames are left to the GC rather than pinned in the
// pool.
func (f *SharedFrame) Release() {
	if f.refs.Add(-1) == 0 {
		if cap(f.b) <= maxRetainedScratch {
			framePool(cap(f.b)).Put(f)
		}
	}
}

// Outgoing is one frame queued to a connection's WriteQueue: either a
// Msg to encode, or a pre-encoded shared frame (Raw) to copy out as-is.
// When Pooled is set the queue returns Msg to the message pool as soon
// as the frame is encoded (or abandoned), so producers queue-and-forget;
// a producer that still needs the Msg after queuing leaves Pooled unset.
// A Raw frame's reference is always released by the queue.
type Outgoing struct {
	Msg    *Msg
	Raw    *SharedFrame
	Pooled bool
}

// Discard releases the resources held by a queued frame that will never
// be written: the shared-frame reference and, for pooled messages, the
// Msg. Producers call it when a push to a full or dead queue fails.
func (o Outgoing) Discard() {
	if o.Raw != nil {
		o.Raw.Release()
	}
	if o.Pooled {
		PutMsg(o.Msg)
	}
}

// Writer encodes frames onto an io.Writer with an internal buffer.
// Writer is not safe for concurrent use.
type Writer struct {
	bw  *bufio.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32<<10)}
}

// AppendFrame appends m's complete wire frame — length header included —
// to buf and returns the extended slice. It is the encode primitive
// shared by Writer and the client's multiplexed transport (which encodes
// in the caller's goroutine so the request's byte slices need not outlive
// the call).
func AppendFrame(buf []byte, m *Msg) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	tb := byte(m.Type)
	if m.Trace != nil {
		tb |= traceFlag
	}
	buf = append(buf, tb)
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	var err error
	if m.Trace != nil {
		if buf, err = appendTrace(buf, m.Trace); err != nil {
			return buf[:start], err
		}
	}
	buf, err = appendPayload(buf, m)
	if err != nil {
		return buf[:start], err
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// WriteMsg encodes m and flushes it — one frame, one syscall. Batch
// writers use WriteMsgBuffered plus a single Flush instead.
func (w *Writer) WriteMsg(m *Msg) error {
	if err := w.WriteMsgBuffered(m); err != nil {
		return err
	}
	return w.Flush()
}

// WriteMsgBuffered encodes m into the write buffer without flushing, so
// several frames coalesce into one Flush (and one syscall). The frame is
// not on the wire until Flush returns.
func (w *Writer) WriteMsgBuffered(m *Msg) error {
	b, err := AppendFrame(w.buf[:0], m)
	if cap(b) > maxRetainedScratch {
		w.buf = nil // don't let one giant frame pin its scratch forever
	} else {
		w.buf = b // retain grown capacity across frames
	}
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("proto: writing frame: %w", err)
	}
	return nil
}

// WriteRaw appends a pre-encoded frame (produced by AppendFrame) to the
// write buffer without flushing.
func (w *Writer) WriteRaw(frame []byte) error {
	if _, err := w.bw.Write(frame); err != nil {
		return fmt.Errorf("proto: writing frame: %w", err)
	}
	return nil
}

// Flush writes buffered frames to the underlying writer.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("proto: flushing frame: %w", err)
	}
	return nil
}

// WriteQueue drains frames from out onto w (the raw connection) until
// out closes, coalescing bursts: frames queued while a flush was in
// progress are gathered and written together, so a pipelined burst of N
// responses costs one vectored write instead of N syscalls. Msg frames
// are encoded back-to-back into one scratch buffer with zero
// intermediate copies; pre-encoded shared frames are passed to the
// kernel in place. On a write error it closes conn
// (unblocking the producing read loop) and keeps draining out —
// discarding each frame's pooled resources — so senders never block.
// The store, cache and LB servers all run their response writers
// through this.
func WriteQueue(w io.Writer, out <-chan Outgoing, conn io.Closer) {
	WriteQueueFlushed(w, out, conn, nil)
}

// WriteQueueFlushed is WriteQueue with a retirement hook: flushed(n) is
// called with the number of frames newly retired — flushed to the wire,
// or abandoned because the connection failed or out closed — so a
// producer can account for frames that are truly done rather than
// merely queued (the LB's graceful drain needs this).
func WriteQueueFlushed(w io.Writer, out <-chan Outgoing, conn io.Closer, flushed func(n int)) {
	var q burst
	retire := func(n int) {
		if flushed != nil && n > 0 {
			flushed(n)
		}
	}
	fail := func(n int) {
		q.reset() // release gathered-but-unwritten shared frames
		if conn != nil {
			conn.Close()
		}
		for o := range out { // drain until closed so senders never block
			o.Discard()
			n++
		}
		retire(n)
	}
	for o := range out {
		n, closed, err := q.gather(o, out)
		if err != nil {
			fail(n)
			return
		}
		if !closed {
			// One scheduler yield before flushing lets an already-runnable
			// producer (the dispatch loop of a pipelined peer) queue the
			// responses it has in hand, growing the frames-per-write batch
			// for the cost of one Gosched. A lock-step peer pays one yield
			// of latency, not a timer.
			runtime.Gosched()
			n2, closed2, err2 := q.gatherMore(out)
			n += n2
			closed = closed || closed2
			if err2 != nil {
				fail(n)
				return
			}
		}
		if err := q.flush(w); err != nil {
			if closed {
				retire(n)
				return // connection is going away anyway
			}
			fail(n)
			return
		}
		retire(n)
		if closed {
			return
		}
	}
}

// ReplyQueue is the producing side of one server connection's WriteQueue:
// the queue itself, and a count of the requests the connection's read loop
// has handed off — to a completion on some upstream connection's reader,
// or to a goroutine — and that still owe an answer. The store, cache and LB
// servers all answer off their read loops through this.
type ReplyQueue struct {
	// Out feeds the connection's WriteQueue. Close closes it.
	Out chan Outgoing
	// sem holds one slot per handed-off request; owed waits them all out.
	sem  chan struct{}
	owed sync.WaitGroup
}

// NewReplyQueue makes a queue of depth frames that lets at most inflight
// requests be handed off at once; beyond it Acquire blocks, which is the
// read loop exerting backpressure.
func NewReplyQueue(depth, inflight int) *ReplyQueue {
	return &ReplyQueue{Out: make(chan Outgoing, depth), sem: make(chan struct{}, inflight)}
}

// Acquire registers a request about to be handed off. Each is ended by
// exactly one Answer or Release.
func (q *ReplyQueue) Acquire() {
	q.sem <- struct{}{}
	q.owed.Add(1)
}

// Release ends an acquired request whose answer the caller has queued on
// Out itself (or that gets none).
func (q *ReplyQueue) Release() {
	<-q.sem
	q.owed.Done()
}

// Answer queues o as the answer to an acquired request without ever
// waiting for this client: it runs on upstream connections' readers, which
// every client connection shares. A client that is not draining its
// responses gets the one frame parked on a goroutine — at most inflight of
// them, as the slot is held until the frame is queued.
func (q *ReplyQueue) Answer(o Outgoing) {
	select {
	case q.Out <- o:
		q.Release()
	default:
		go func() {
			q.Out <- o
			q.Release()
		}()
	}
}

// Close waits for every acquired request to end, then closes Out.
func (q *ReplyQueue) Close() {
	q.owed.Wait()
	close(q.Out)
}

// burst accumulates one coalesced flush for WriteQueue: Msg frames are
// encoded back-to-back into scratch, shared frames are referenced in
// place, and the whole ordered sequence goes out as a single vectored
// write.
type burst struct {
	scratch []byte
	chunks  []burstChunk
	iov     net.Buffers
	// wv is the copy of iov's header that WriteTo consumes. WriteTo's
	// receiver escapes, so a local would cost one allocation per flush.
	wv net.Buffers
}

// burstChunk is one element of the outgoing vector: a pre-encoded
// shared frame, or (raw == nil) the scratch span [start:end).
type burstChunk struct {
	raw        *SharedFrame
	start, end int
}

// gather buffers o plus every frame immediately available on out,
// reporting how many frames it consumed and whether out closed
// mid-drain. On an encode error the failed frame is counted as consumed
// (it is retired, not written).
func (q *burst) gather(o Outgoing, out <-chan Outgoing) (n int, closed bool, err error) {
	for {
		n++
		if err := q.add(o); err != nil {
			return n, false, err
		}
		select {
		case o2, ok := <-out:
			if !ok {
				return n, true, nil
			}
			o = o2
		default:
			return n, false, nil
		}
	}
}

// gatherMore buffers every frame immediately available on out, without
// requiring an initial element.
func (q *burst) gatherMore(out <-chan Outgoing) (n int, closed bool, err error) {
	for {
		select {
		case o, ok := <-out:
			if !ok {
				return n, true, nil
			}
			n++
			if err := q.add(o); err != nil {
				return n, false, err
			}
		default:
			return n, false, nil
		}
	}
}

func (q *burst) add(o Outgoing) error {
	if o.Raw != nil {
		q.chunks = append(q.chunks, burstChunk{raw: o.Raw})
		return nil
	}
	start := len(q.scratch)
	b, err := AppendFrame(q.scratch, o.Msg)
	q.scratch = b // on error AppendFrame truncated back to start
	if o.Pooled {
		PutMsg(o.Msg)
	}
	if err != nil {
		return err
	}
	if k := len(q.chunks); k > 0 && q.chunks[k-1].raw == nil {
		q.chunks[k-1].end = len(b) // adjacent encodes stay one contiguous span
	} else {
		q.chunks = append(q.chunks, burstChunk{start: start, end: len(b)})
	}
	return nil
}

// flush writes the gathered burst, releases shared-frame references,
// and resets for the next burst.
func (q *burst) flush(w io.Writer) error {
	var err error
	switch {
	case len(q.chunks) == 0:
	case len(q.chunks) == 1:
		// Common case: an all-Msg burst, or a lone shared frame, is one
		// contiguous write.
		c := q.chunks[0]
		if c.raw != nil {
			_, err = w.Write(c.raw.Bytes())
		} else {
			_, err = w.Write(q.scratch[c.start:c.end])
		}
	default:
		q.iov = q.iov[:0]
		for _, c := range q.chunks {
			if c.raw != nil {
				q.iov = append(q.iov, c.raw.Bytes())
			} else {
				q.iov = append(q.iov, q.scratch[c.start:c.end])
			}
		}
		// WriteTo consumes a copy of the header so q.iov's backing
		// array is reused next burst; on a net.Conn it is one writev.
		q.wv = q.iov
		_, err = q.wv.WriteTo(w)
	}
	q.reset()
	if err != nil {
		return fmt.Errorf("proto: writing burst: %w", err)
	}
	return nil
}

// reset releases shared-frame references and shrinks oversized scratch.
func (q *burst) reset() {
	for i, c := range q.chunks {
		if c.raw != nil {
			c.raw.Release()
		}
		q.chunks[i] = burstChunk{}
	}
	q.chunks = q.chunks[:0]
	if cap(q.scratch) > maxRetainedScratch {
		q.scratch = nil // don't let one giant burst pin its scratch forever
	} else {
		q.scratch = q.scratch[:0]
	}
}

// MaxNodes bounds the node lists in ring and migration messages.
const MaxNodes = 4096

func appendStringList(b []byte, list []string) ([]byte, error) {
	if len(list) > MaxNodes {
		return b, fmt.Errorf("%w: %d nodes", ErrMalformed, len(list))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(list)))
	var err error
	for _, s := range list {
		if b, err = appendString16(b, s); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendKeys encodes a multi-key read's key set (MsgMGet, MsgMFill).
// Unlike appendStringList this is bounded by MaxBatchOps, not MaxNodes:
// a batch read legitimately names far more keys than a ring has nodes.
func appendKeys(b []byte, keys []string) ([]byte, error) {
	if len(keys) > MaxBatchOps {
		return b, fmt.Errorf("%w: %d keys", ErrMalformed, len(keys))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(keys)))
	var err error
	for _, k := range keys {
		if b, err = appendString16(b, k); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendOps encodes a batch-op list (shared by MsgBatch, MsgRepWrite
// and the multi-key messages); a positional one, an answer, has the
// KeysDigest of its ops' keys in their place.
func appendOps(b []byte, ops []BatchOp, positional bool) ([]byte, error) {
	if len(ops) > MaxBatchOps {
		return b, fmt.Errorf("%w: %d batch ops", ErrMalformed, len(ops))
	}
	if positional {
		h := uint64(digestBasis)
		for i := range ops {
			h = digestKey(h, ops[i].Key)
		}
		b = binary.BigEndian.AppendUint64(b, h)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(ops)))
	var err error
	for _, op := range ops {
		b = append(b, byte(op.Kind))
		if !positional {
			if b, err = appendString16(b, op.Key); err != nil {
				return b, err
			}
		}
		if op.Kind == BatchUpdate {
			b = binary.BigEndian.AppendUint64(b, op.Version)
			if b, err = appendBytes32(b, op.Value); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// appendFreqs encodes a tracker warm-start list (shared by
// MsgMigrateDone and MsgRepWrite).
func appendFreqs(b []byte, freqs []KeyFreq) ([]byte, error) {
	if len(freqs) > MaxBatchOps {
		return b, fmt.Errorf("%w: %d freqs", ErrMalformed, len(freqs))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(freqs)))
	var err error
	for _, f := range freqs {
		if b, err = appendString16(b, f.Key); err != nil {
			return b, err
		}
		b = binary.BigEndian.AppendUint64(b, f.Reads)
		b = binary.BigEndian.AppendUint64(b, f.Writes)
	}
	return b, nil
}

// KeysDigest stands for the keys a positional answer answers: 64-bit
// FNV-1a over each key behind its u16 length, so other keys, or these in
// another order, give another digest.
func KeysDigest(keys []string) uint64 {
	h := uint64(digestBasis)
	for _, k := range keys {
		h = digestKey(h, k)
	}
	return h
}

const digestBasis, digestPrime = 14695981039346656037, 1099511628211

// digestKey folds k, length first, into the running digest h.
func digestKey(h uint64, k string) uint64 {
	h = (h ^ uint64(len(k)>>8&0xff)) * digestPrime
	h = (h ^ uint64(len(k)&0xff)) * digestPrime
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * digestPrime
	}
	return h
}

func appendString16(b []byte, s string) ([]byte, error) {
	if len(s) > MaxKey {
		return b, fmt.Errorf("%w: key length %d", ErrMalformed, len(s))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

func appendBytes32(b, v []byte) ([]byte, error) {
	if len(v) > MaxFrame/2 {
		return b, fmt.Errorf("%w: value length %d", ErrMalformed, len(v))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...), nil
}

func appendPayload(b []byte, m *Msg) ([]byte, error) {
	var err error
	switch m.Type {
	case MsgGet, MsgFill, MsgSubscribe:
		return appendString16(b, m.Key)
	case MsgGetResp:
		b = append(b, byte(m.Status))
		b = binary.BigEndian.AppendUint64(b, m.Version)
		return appendBytes32(b, m.Value)
	case MsgPut:
		if b, err = appendString16(b, m.Key); err != nil {
			return b, err
		}
		return appendBytes32(b, m.Value)
	case MsgPutResp:
		b = append(b, byte(m.Status))
		return binary.BigEndian.AppendUint64(b, m.Version), nil
	case MsgSubResp:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		return appendString16(b, m.Key)
	case MsgBatch:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		return appendOps(b, m.Ops, false)
	case MsgReadReport:
		if len(m.Reports) > MaxBatchOps {
			return b, fmt.Errorf("%w: %d reports", ErrMalformed, len(m.Reports))
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Reports)))
		for _, r := range m.Reports {
			if b, err = appendString16(b, r.Key); err != nil {
				return b, err
			}
			b = binary.BigEndian.AppendUint32(b, r.Count)
		}
		return b, nil
	case MsgStats, MsgPing, MsgPong:
		return b, nil
	case MsgStatsResp:
		if len(m.Stats) > MaxBatchOps {
			return b, fmt.Errorf("%w: %d stats", ErrMalformed, len(m.Stats))
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(m.Stats)))
		// Sorted keys: stats frames render identically across runs, so
		// freshctl output and tests don't depend on map iteration order.
		keys := make([]string, 0, len(m.Stats))
		for k := range m.Stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if b, err = appendString16(b, k); err != nil {
				return b, err
			}
			b = binary.BigEndian.AppendUint64(b, m.Stats[k])
		}
		return b, nil
	case MsgErr:
		return appendString16(b, m.Err)
	case MsgRingGet, MsgMigrateAck:
		return b, nil
	case MsgRingResp:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Stamp))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Version))
		b = binary.BigEndian.AppendUint32(b, m.Replicas)
		return appendStringList(b, m.Nodes)
	case MsgJoin, MsgDrain:
		return appendString16(b, m.Key)
	case MsgHeartbeat:
		b = binary.BigEndian.AppendUint64(b, m.Version)
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		return appendString16(b, m.Key)
	case MsgVote:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint64(b, m.Version)
		b = binary.BigEndian.AppendUint64(b, uint64(m.Stamp))
		return appendString16(b, m.Key)
	case MsgVoteResp:
		b = append(b, byte(m.Status))
		return binary.BigEndian.AppendUint64(b, m.Epoch), nil
	case MsgAppend:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint64(b, m.Version)
		if b, err = appendString16(b, m.Key); err != nil {
			return b, err
		}
		return appendBytes32(b, m.Value)
	case MsgAppendResp:
		b = append(b, byte(m.Status))
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		return binary.BigEndian.AppendUint64(b, m.Version), nil
	case MsgAdopt, MsgRepSync:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint32(b, uint32(m.Version))
		b = binary.BigEndian.AppendUint32(b, m.Replicas)
		if b, err = appendString16(b, m.Key); err != nil {
			return b, err
		}
		if b, err = appendStringList(b, m.Nodes); err != nil {
			return b, err
		}
		return appendStringList(b, m.Donors)
	case MsgMigrate:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint32(b, uint32(m.Version))
		if b, err = appendString16(b, m.Key); err != nil {
			return b, err
		}
		return appendStringList(b, m.Nodes)
	case MsgRelease:
		b = binary.BigEndian.AppendUint64(b, m.Epoch)
		b = binary.BigEndian.AppendUint32(b, uint32(m.Version))
		b = binary.BigEndian.AppendUint32(b, m.Replicas)
		if b, err = appendString16(b, m.Key); err != nil {
			return b, err
		}
		return appendStringList(b, m.Nodes)
	case MsgRepWrite, MsgMigrateDone:
		b = binary.BigEndian.AppendUint64(b, m.Version)
		if b, err = appendOps(b, m.Ops, false); err != nil {
			return b, err
		}
		return appendFreqs(b, m.Freqs)
	case MsgMGet, MsgMFill:
		return appendKeys(b, m.Keys)
	case MsgMGetResp, MsgMPut, MsgMPutResp:
		return appendOps(b, m.Ops, m.Type != MsgMPut)
	default:
		return b, fmt.Errorf("%w: unknown type %v", ErrMalformed, m.Type)
	}
}

// Reader decodes frames from an io.Reader.
// Reader is not safe for concurrent use.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	// intern and internOld are the two generations of the key-intern
	// table (see internString).
	intern, internOld map[string]string
	// hdr is the frame-header scratch. A local array would escape to the
	// heap through the io.ReadFull interface call — one allocation per
	// frame on every hot read loop in the system.
	hdr [4]byte
}

// internLimit bounds the Reader's key-intern table — both generations
// together, internLimit/2 strings each — so a churning keyspace costs
// bounded memory rather than unbounded growth. maxInternLen keeps giant
// keys out of the table.
const (
	internLimit  = 4096
	maxInternLen = 64
)

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10)}
}

// ReadMsg reads and decodes the next frame. The returned Msg's byte
// slices alias the Reader's internal buffer and are invalidated by the
// next ReadMsg; callers keeping data must copy (the cache node does).
func (r *Reader) ReadMsg() (*Msg, error) {
	m := new(Msg)
	if err := r.ReadMsgInto(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMsgInto reads and decodes the next frame into m, reusing m's
// Ops/Keys/Reports/Freqs slice capacity so a steady request loop runs
// allocation-free. Everything reachable from m — byte slices aliasing
// the Reader's buffer and the reused slices themselves — is invalidated
// by the next ReadMsg/ReadMsgInto on this Reader; callers keeping data
// must copy. Short strings (keys, node names) are interned per Reader:
// they are immutable, shared across frames, and safe to retain.
func (r *Reader) ReadMsgInto(m *Msg) error {
	if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("proto: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(r.hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n < 9 {
		return fmt.Errorf("%w: frame too short (%d bytes)", ErrMalformed, n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	buf := r.buf[:n]
	if cap(r.buf) > maxRetainedScratch {
		// One-off giant frame: keep the array alive only as long as
		// this Msg's aliases, not for the connection's lifetime.
		r.buf = nil
	}
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return fmt.Errorf("proto: reading frame body: %w", err)
	}
	ops, keys, reports, freqs := m.Ops[:0], m.Keys[:0], m.Reports[:0], m.Freqs[:0]
	tb := buf[0]
	*m = Msg{Type: MsgType(tb &^ traceFlag), Seq: binary.BigEndian.Uint64(buf[1:9])}
	m.Ops, m.Keys, m.Reports, m.Freqs = ops, keys, reports, freqs
	payload := buf[9:]
	if tb&traceFlag != 0 {
		c := &cursor{b: payload, rd: r}
		tr, err := parseTrace(c)
		if err != nil {
			return err
		}
		m.Trace = tr
		payload = payload[c.off:]
	}
	return parsePayload(m, payload, r)
}

// internString returns a canonical string for b, so a hot key's name is
// allocated once per connection instead of once per frame. The map
// lookups themselves are allocation-free (string(b) used as a map index
// does not escape).
//
// The table is two-generation: lookups try the young generation, then
// the old one, and a hit in the old one is carried over into the young.
// When the young generation fills (half of internLimit) it becomes the
// old one and the previous old one is dropped — so a key seen at least
// once per generation (every hot key of a skewed workload)
// survives rollover with its one allocation, and only keys colder than
// that are dropped.
func (r *Reader) internString(b []byte) string {
	if s, ok := r.intern[string(b)]; ok {
		return s
	}
	s, ok := r.internOld[string(b)]
	if !ok {
		s = string(b)
	}
	if len(r.intern) >= internLimit/2 {
		// A fresh small table rather than the emptied old one: a cleared
		// map keeps its full bucket array, and most Readers never fill a
		// generation again.
		r.intern, r.internOld = nil, r.intern
	}
	if r.intern == nil {
		r.intern = make(map[string]string, 64)
	}
	r.intern[s] = s
	return s
}

// cursor is a bounds-checked little parse helper. rd, when set, provides
// the string-intern table.
type cursor struct {
	b   []byte
	off int
	rd  *Reader
}

func (c *cursor) need(n int) ([]byte, error) {
	if c.off+n > len(c.b) {
		return nil, fmt.Errorf("%w: truncated payload (need %d past %d/%d)",
			ErrMalformed, n, c.off, len(c.b))
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *cursor) u8() (uint8, error) {
	b, err := c.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *cursor) u16() (uint16, error) {
	b, err := c.need(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.need(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.need(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (c *cursor) str16() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	b, err := c.need(int(n))
	if err != nil {
		return "", err
	}
	if c.rd != nil && len(b) <= maxInternLen {
		return c.rd.internString(b), nil
	}
	return string(b), nil
}

func (c *cursor) bytes32() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxFrame/2 {
		return nil, fmt.Errorf("%w: value length %d", ErrMalformed, n)
	}
	return c.need(int(n))
}

func (c *cursor) strList() ([]string, error) {
	n, err := c.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes", ErrMalformed, n)
	}
	out := make([]string, 0, n)
	for i := uint16(0); i < n; i++ {
		s, err := c.str16()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ops decodes a batch-op list (shared by MsgBatch, MsgRepWrite and the
// multi-key messages) into m.Ops' capacity; a positional one into m.Digest
// and keyless ops.
func (c *cursor) ops(m *Msg, positional bool) (err error) {
	if positional {
		if m.Digest, err = c.u64(); err != nil {
			return err
		}
	}
	n, err := c.u32()
	if err != nil {
		return err
	}
	if n > MaxBatchOps {
		return fmt.Errorf("%w: %d batch ops", ErrMalformed, n)
	}
	ops := m.Ops
	if cap(ops) == 0 {
		ops = make([]BatchOp, 0, min64(uint64(n), 4096))
	}
	for i := uint32(0); i < n; i++ {
		var op BatchOp
		kind, err := c.u8()
		if err != nil {
			return err
		}
		op.Kind = BatchKind(kind)
		if op.Kind != BatchInvalidate && op.Kind != BatchUpdate {
			return fmt.Errorf("%w: batch op kind %d", ErrMalformed, kind)
		}
		if !positional {
			if op.Key, err = c.str16(); err != nil {
				return err
			}
		}
		if op.Kind == BatchUpdate {
			if op.Version, err = c.u64(); err != nil {
				return err
			}
			if op.Value, err = c.bytes32(); err != nil {
				return err
			}
		}
		ops = append(ops, op)
	}
	m.Ops = ops
	return nil
}

// keys decodes a multi-key read's key set (MsgMGet, MsgMFill) into
// dst's capacity.
func (c *cursor) keys(dst []string) ([]string, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxBatchOps {
		return nil, fmt.Errorf("%w: %d keys", ErrMalformed, n)
	}
	out := dst
	if cap(out) == 0 {
		out = make([]string, 0, min64(uint64(n), 4096))
	}
	for i := uint32(0); i < n; i++ {
		s, err := c.str16()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// freqs decodes a tracker warm-start list (shared by MsgMigrateDone
// and MsgRepWrite) into dst's capacity.
func (c *cursor) freqs(dst []KeyFreq) ([]KeyFreq, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	if n > MaxBatchOps {
		return nil, fmt.Errorf("%w: %d freqs", ErrMalformed, n)
	}
	out := dst
	if cap(out) == 0 {
		out = make([]KeyFreq, 0, min64(uint64(n), 4096))
	}
	for i := uint32(0); i < n; i++ {
		var f KeyFreq
		if f.Key, err = c.str16(); err != nil {
			return nil, err
		}
		if f.Reads, err = c.u64(); err != nil {
			return nil, err
		}
		if f.Writes, err = c.u64(); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func (c *cursor) done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(c.b)-c.off)
	}
	return nil
}

func parsePayload(m *Msg, payload []byte, rd *Reader) error {
	c := &cursor{b: payload, rd: rd}
	var err error
	switch m.Type {
	case MsgGet, MsgFill, MsgSubscribe:
		if m.Key, err = c.str16(); err != nil {
			return err
		}
	case MsgGetResp:
		st, err := c.u8()
		if err != nil {
			return err
		}
		m.Status = Status(st)
		if m.Version, err = c.u64(); err != nil {
			return err
		}
		if m.Value, err = c.bytes32(); err != nil {
			return err
		}
	case MsgPut:
		if m.Key, err = c.str16(); err != nil {
			return err
		}
		if m.Value, err = c.bytes32(); err != nil {
			return err
		}
	case MsgPutResp:
		st, err := c.u8()
		if err != nil {
			return err
		}
		m.Status = Status(st)
		if m.Version, err = c.u64(); err != nil {
			return err
		}
	case MsgSubResp:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		if m.Key, err = c.str16(); err != nil {
			return err
		}
	case MsgBatch:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		if err = c.ops(m, false); err != nil {
			return err
		}
	case MsgReadReport:
		n, err := c.u32()
		if err != nil {
			return err
		}
		if n > MaxBatchOps {
			return fmt.Errorf("%w: %d reports", ErrMalformed, n)
		}
		if cap(m.Reports) == 0 {
			m.Reports = make([]ReadReport, 0, min64(uint64(n), 4096))
		}
		for i := uint32(0); i < n; i++ {
			var rp ReadReport
			if rp.Key, err = c.str16(); err != nil {
				return err
			}
			if rp.Count, err = c.u32(); err != nil {
				return err
			}
			m.Reports = append(m.Reports, rp)
		}
	case MsgStats, MsgPing, MsgPong:
	case MsgStatsResp:
		n, err := c.u32()
		if err != nil {
			return err
		}
		if n > MaxBatchOps {
			return fmt.Errorf("%w: %d stats", ErrMalformed, n)
		}
		m.Stats = make(map[string]uint64, min64(uint64(n), 4096))
		for i := uint32(0); i < n; i++ {
			k, err := c.str16()
			if err != nil {
				return err
			}
			v, err := c.u64()
			if err != nil {
				return err
			}
			m.Stats[k] = v
		}
	case MsgErr:
		if m.Err, err = c.str16(); err != nil {
			return err
		}
	case MsgRingGet, MsgMigrateAck:
	case MsgRingResp:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		stamp, err := c.u64()
		if err != nil {
			return err
		}
		m.Stamp = int64(stamp)
		v, err := c.u32()
		if err != nil {
			return err
		}
		m.Version = uint64(v)
		if m.Replicas, err = c.u32(); err != nil {
			return err
		}
		if m.Nodes, err = c.strList(); err != nil {
			return err
		}
	case MsgJoin, MsgDrain:
		if m.Key, err = c.str16(); err != nil {
			return err
		}
	case MsgHeartbeat:
		if m.Version, err = c.u64(); err != nil {
			return err
		}
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		if m.Key, err = c.str16(); err != nil {
			return err
		}
	case MsgVote:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		if m.Version, err = c.u64(); err != nil {
			return err
		}
		stamp, err := c.u64()
		if err != nil {
			return err
		}
		m.Stamp = int64(stamp)
		if m.Key, err = c.str16(); err != nil {
			return err
		}
	case MsgVoteResp:
		st, err := c.u8()
		if err != nil {
			return err
		}
		m.Status = Status(st)
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
	case MsgAppend:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		if m.Version, err = c.u64(); err != nil {
			return err
		}
		if m.Key, err = c.str16(); err != nil {
			return err
		}
		if m.Value, err = c.bytes32(); err != nil {
			return err
		}
	case MsgAppendResp:
		st, err := c.u8()
		if err != nil {
			return err
		}
		m.Status = Status(st)
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		if m.Version, err = c.u64(); err != nil {
			return err
		}
	case MsgAdopt, MsgRepSync:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		v, err := c.u32()
		if err != nil {
			return err
		}
		m.Version = uint64(v)
		if m.Replicas, err = c.u32(); err != nil {
			return err
		}
		if m.Key, err = c.str16(); err != nil {
			return err
		}
		if m.Nodes, err = c.strList(); err != nil {
			return err
		}
		if m.Donors, err = c.strList(); err != nil {
			return err
		}
	case MsgMigrate:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		v, err := c.u32()
		if err != nil {
			return err
		}
		m.Version = uint64(v)
		if m.Key, err = c.str16(); err != nil {
			return err
		}
		if m.Nodes, err = c.strList(); err != nil {
			return err
		}
	case MsgRelease:
		if m.Epoch, err = c.u64(); err != nil {
			return err
		}
		v, err := c.u32()
		if err != nil {
			return err
		}
		m.Version = uint64(v)
		if m.Replicas, err = c.u32(); err != nil {
			return err
		}
		if m.Key, err = c.str16(); err != nil {
			return err
		}
		if m.Nodes, err = c.strList(); err != nil {
			return err
		}
	case MsgRepWrite, MsgMigrateDone:
		if m.Version, err = c.u64(); err != nil {
			return err
		}
		if err = c.ops(m, false); err != nil {
			return err
		}
		if m.Freqs, err = c.freqs(m.Freqs); err != nil {
			return err
		}
	case MsgMGet, MsgMFill:
		if m.Keys, err = c.keys(m.Keys); err != nil {
			return err
		}
	case MsgMGetResp, MsgMPut, MsgMPutResp:
		if err = c.ops(m, m.Type != MsgMPut); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown type %d", ErrMalformed, uint8(m.Type))
	}
	return c.done()
}

func min64(a, b uint64) int {
	if a < b {
		return int(a)
	}
	if b > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(b)
}
