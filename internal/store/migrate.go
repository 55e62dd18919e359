// Key placement, restore and range transfer: the store-side half of
// live resharding, replica bootstrap and failover. Each rule that
// carries the freshness guarantee through a topology change has one
// body: placeLocked (where does this key live right now), pendingWrite
// in batch.go (an ack waits for every replica), applyRestore (received
// entries keep their versions, never clobber newer ones, and fence the
// receiver's counter past the sender's), streamRange / pullRange (a key
// range moves as one stream on a dedicated connection).
//
// One stream serves both pulls — an adopter taking over a range
// (MIGRATE) and a replica bootstrapping a primary's backlog (REPSYNC):
//
//	puller → sender   MIGRATE | REPSYNC   ring + puller identity
//	sender → puller   REPWRITE …          snapshot slices (key, value, version)
//	sender → puller   REPWRITE …          MIGRATE only: dirty rounds, keys written mid-stream
//	sender → puller   MIGRATEDONE         tracker freqs + sender version counter
//	puller → sender   MIGRATEACK          MIGRATE only: all applied, counter bumped
//	sender → puller   PONG                MIGRATE only: forward switch done, tail transferred
//
// and one restore push — REPWRITE as a request, answered PONG — carries
// everything that moves outside a stream: a primary's accepted writes
// to its replicas, the donor's version fence and write tail at the
// forward switch, the coordinator's failover fence.
//
// A replica bootstrap ends at MIGRATEDONE: no ownership moves, and new
// writes already reach the replica live. A handoff goes on: on ACK the
// donor switches the moved range to forwarding (handleMigrateAck), and
// only after every donor has answered does the coordinator publish the
// new ring epoch. Until that publish, caches are still subscribed under
// the old epoch, so the donor keeps pushing invalidates for forwarded
// keys (flushOnce) and forwards their reads — bounded staleness holds
// through the transition. If any step fails, the donor rolls the switch
// back (or the coordinator never publishes) and a retried join
// re-streams idempotently.
package store

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/kv"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
)

// keySet is a set of keys filled on the data path and drained by a
// background round: an outbound migration's dirty set (writes the
// stream still owes the adopter) and the store's forwarded-write set
// (invalidates the next flush still owes old-epoch subscribers). The
// zero value is ready to use.
type keySet struct {
	mu sync.Mutex
	m  map[string]struct{}
}

// add records keys; it also refills a set with keys a failed round took.
func (ks *keySet) add(keys ...string) {
	ks.mu.Lock()
	if ks.m == nil {
		ks.m = make(map[string]struct{})
	}
	for _, k := range keys {
		ks.m[k] = struct{}{}
	}
	ks.mu.Unlock()
}

// take drains the set.
func (ks *keySet) take() []string {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if len(ks.m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(ks.m))
	for k := range ks.m {
		keys = append(keys, k)
	}
	clear(ks.m)
	return keys
}

// outMigration is one outbound key-range handoff on the donor.
type outMigration struct {
	requester string // adopter identity (its ring address)
	epoch     uint64 // candidate ring epoch
	owns      func(key string) bool
	// forward flips at ACK: writes (and reads) for the range go to the
	// adopter from then on. Written under Server.clMu (write lock),
	// read under its read lock.
	forward bool
	dirty   keySet // writes to the range since registration
}

// Chunking bounds for range transfers; a chunk closes at whichever
// limit it hits first (frames are capped at proto.MaxFrame).
const (
	migChunkOps   = 512
	migChunkBytes = 1 << 20
)

// dialTimeout/migrateIdle bound a pull: the dial, and the longest
// silence between stream frames. fenceTimeout bounds the version-fence
// RPC issued under the donor's write lock — it is the worst-case write
// pause of a forward switch, so it is kept tight.
const (
	migDialTimeout = 5 * time.Second
	migIdleTimeout = 30 * time.Second
	fenceTimeout   = 2 * time.Second
)

// errMsg builds a request-level error response.
func errMsg(seq uint64, format string, args ...any) *proto.Msg {
	return &proto.Msg{Type: proto.MsgErr, Seq: seq, Err: fmt.Sprintf(format, args...)}
}

// parseRingMsg builds the ring carried by an Adopt/Migrate/Release/
// RepSync message.
func parseRingMsg(m *proto.Msg) (*ring.Ring, error) {
	r, err := ring.New(m.Nodes, int(m.Version))
	if err != nil {
		return nil, fmt.Errorf("store: bad ring in %v: %w", m.Type, err)
	}
	return r, nil
}

// ---- Placement (data path) ----

// placeLocked is the placement rule: where key lives right now. A
// non-empty target means another store — the adopter, once the key's
// range switched to forwarding (the switch already fenced the adopter's
// version counter, so the versions forwarded writes are assigned order
// after everything a cache may hold), or the ring owner, once a
// published ring says the key lives elsewhere. Otherwise the key is
// served here, and a non-nil dirty means it sits in a range still
// streaming out: a local write must be recorded there after it is
// applied.
//
// The caller holds clMu for reading — once per request, across the
// local authority writes the answer leads to. Control-plane transitions
// (migration registration, the forward switch, ring installs) take the
// write lock, so a migration's registration covers every write exactly
// once: a write either completes before the snapshot or observes the
// registered migration and dirty-tracks.
func (s *Server) placeLocked(key string) (target string, dirty *keySet) {
	for _, om := range s.outMigs {
		if !om.owns(key) {
			continue
		}
		if om.forward {
			return om.requester, nil
		}
		dirty = &om.dirty
		break
	}
	if s.clusterRing != nil {
		if owner := s.clusterRing.OwnerAddr(key); owner != s.selfAddr {
			return owner, nil
		}
	}
	return "", dirty
}

// forwardGet proxies a read to the key's current owner. Fills stay
// fills so the owner's engine records the cache refresh.
func (s *Server) forwardGet(seq uint64, key, target string, fill bool) *proto.Msg {
	peer := s.peer(target)
	var (
		value   []byte
		version uint64
		err     error
	)
	if fill {
		value, version, err = peer.Fill(key)
	} else {
		value, version, err = peer.Get(key)
	}
	s.c.ForwardedReads.Inc()
	switch {
	case err == nil:
		return &proto.Msg{Type: proto.MsgGetResp, Seq: seq, Status: proto.StatusOK,
			Version: version, Value: value}
	case errors.Is(err, client.ErrNotFound):
		return &proto.Msg{Type: proto.MsgGetResp, Seq: seq, Status: proto.StatusNotFound}
	default:
		return errMsg(seq, "store: forwarding read for %q to %s: %v", key, target, err)
	}
}

// forwardReports relays read reports for keys this store does not serve
// to the stores that do (best effort).
func (s *Server) forwardReports(stray map[string][]proto.ReadReport) {
	for target, part := range stray {
		if err := s.peer(target).ReadReport(part); err != nil {
			s.cfg.Logger.Printf("store %s: relaying read reports to %s: %v", s.cfg.ShardID, target, err)
		}
	}
}

// peer returns (creating if needed) the forwarding client for a peer
// store — one multiplexed connection per peer. (No ordering is
// required of it: the version fence completes before the write lock
// releases, and restore pushes are order-free.)
func (s *Server) peer(addr string) *client.Client {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if c, ok := s.peers[addr]; ok {
		return c
	}
	c := client.New(addr, client.Options{MaxConns: 1})
	s.peers[addr] = c
	return c
}

// ---- Restore and range transfer ----

// applyRestore is the one place state received from another store
// enters this one. Entries keep their sender-assigned versions under
// Restore's guard — idempotent, never regressing a key, and raising the
// version counter to at least each version — so stream slices, dirty
// rounds, tails, replication pushes and their retries may interleave
// freely. fence raises the counter past the sender's own, so every
// version assigned here afterwards orders after anything a cache saw
// from the sender. The sender's tracker counts either warm-start the
// policy engine (an adopter: the keys are now its own) or, with bank,
// wait in pendingFreqs — a replica must not push freshness traffic for
// keys it does not own, but a promotion turns the bank into a warm
// start. It reports how many entries were installed.
func (s *Server) applyRestore(ops []proto.BatchOp, freqs []proto.KeyFreq, fence uint64, bank bool) (restored uint64) {
	now := time.Now()
	for _, op := range ops {
		if op.Kind == proto.BatchUpdate && s.auth.Restore(op.Key, op.Value, op.Version, now) {
			restored++
		}
	}
	s.auth.BumpVersion(fence)
	if !bank {
		for _, f := range freqs {
			s.engine.WarmStart(f.Key, f.Reads, f.Writes)
		}
	} else if len(freqs) > 0 {
		s.repMu.Lock()
		for _, f := range freqs {
			s.pendingFreqs[f.Key] = f
		}
		s.repMu.Unlock()
	}
	return restored
}

// appendFreq appends the policy tracker's counts for key, if it has any.
func (s *Server) appendFreq(freqs []proto.KeyFreq, key string) []proto.KeyFreq {
	if reads, writes := s.engine.KeyFreq(key); reads+writes > 0 {
		freqs = append(freqs, proto.KeyFreq{Key: key, Reads: reads, Writes: writes})
	}
	return freqs
}

// resolveEntries looks keys back up in the authority. The views are
// borrowed but stable: authority entries are immutable once installed.
func (s *Server) resolveEntries(keys []string) []kv.MigEntry {
	out := make([]kv.MigEntry, 0, len(keys))
	for _, k := range keys {
		if value, version, ok := s.auth.GetView(k); ok {
			out = append(out, kv.MigEntry{Key: k, Value: value, Version: version})
		}
	}
	return out
}

// nextChunk cuts the next restore-push payload off entries, closing it
// at whichever chunk bound it hits first.
func nextChunk(entries []kv.MigEntry) (ops []proto.BatchOp, rest []kv.MigEntry) {
	n, bytes := 0, 0
	for n < len(entries) && n < migChunkOps && bytes < migChunkBytes {
		bytes += len(entries[n].Key) + len(entries[n].Value)
		n++
	}
	ops = make([]proto.BatchOp, n)
	for i, e := range entries[:n] {
		ops[i] = proto.BatchOp{Kind: proto.BatchUpdate, Key: e.Key, Value: e.Value, Version: e.Version}
	}
	return ops, entries[n:]
}

// streamRange is the sending half of a range transfer: it queues the
// snapshot of every held key satisfying owns on the connection's writer
// as REPWRITE frames, then — for a handoff, whose dirty set records the
// writes landing in the range meanwhile — rounds of the keys dirtied
// while streaming, and returns the closing MIGRATEDONE (the tracker's
// counts for the streamed keys and the version counter) with the number
// of distinct keys streamed.
func (s *Server) streamRange(out chan proto.Outgoing, seq uint64, owns func(key string) bool, dirty *keySet) (done *proto.Msg, moved int) {
	snap := s.auth.SnapshotOwned(owns)
	sent := make(map[string]struct{}, len(snap))
	send := func(entries []kv.MigEntry) {
		for len(entries) > 0 {
			var ops []proto.BatchOp
			ops, entries = nextChunk(entries)
			for i := range ops {
				sent[ops[i].Key] = struct{}{}
			}
			out <- proto.Outgoing{Msg: &proto.Msg{Type: proto.MsgRepWrite, Seq: seq, Ops: ops}, Pooled: true}
		}
	}
	send(snap)
	// Dirty rounds: writes that landed during the stream are re-streamed
	// until a round comes up dry. The round count is bounded; whatever
	// still races the last round is transferred during the ACK switch, so
	// termination does not depend on write load.
	for round := 0; dirty != nil && round < 4; round++ {
		keys := dirty.take()
		if len(keys) == 0 {
			break
		}
		send(s.resolveEntries(keys))
	}
	freqs := make([]proto.KeyFreq, 0, len(sent))
	for k := range sent {
		if len(freqs) == proto.MaxBatchOps { // warm-start is best effort
			break
		}
		freqs = s.appendFreq(freqs, k)
	}
	return &proto.Msg{Type: proto.MsgMigrateDone, Seq: seq,
		Version: s.auth.Version(), Freqs: freqs}, len(sent)
}

// pullRange is the receiving half: it sends req (MIGRATE or REPSYNC) to
// addr on a dedicated connection and applies the answering stream —
// every slice under applyRestore, the closing MIGRATEDONE folding in
// the sender's version counter and tracker counts. finish, if set, then
// completes the exchange on the still-open connection. It reports the
// entries installed.
func (s *Server) pullRange(addr string, req *proto.Msg, bank bool,
	finish func(w *proto.Writer, read func() (*proto.Msg, error)) error) (restored uint64, err error) {
	conn, err := net.DialTimeout("tcp", addr, migDialTimeout)
	if err != nil {
		return 0, fmt.Errorf("dialing %s: %w", addr, err)
	}
	defer conn.Close()
	w, r := proto.NewWriter(conn), proto.NewReader(conn)
	read := func() (*proto.Msg, error) {
		if err := conn.SetReadDeadline(time.Now().Add(migIdleTimeout)); err != nil {
			return nil, err
		}
		return r.ReadMsg()
	}
	if err := w.WriteMsg(req); err != nil {
		return 0, fmt.Errorf("sending %v: %w", req.Type, err)
	}
	for {
		fr, err := read()
		if err != nil {
			return restored, fmt.Errorf("reading range stream: %w", err)
		}
		switch fr.Type {
		case proto.MsgRepWrite, proto.MsgMigrateDone:
			restored += s.applyRestore(fr.Ops, fr.Freqs, fr.Version, bank)
			if fr.Type == proto.MsgRepWrite {
				continue
			}
			if finish == nil {
				return restored, nil
			}
			return restored, finish(w, read)
		case proto.MsgErr:
			return restored, errors.New(fr.Err)
		default:
			return restored, fmt.Errorf("unexpected %v in range stream", fr.Type)
		}
	}
}

// ---- Donor side ----

// handleMigrate streams the requested key range to the adopter. The
// migration is registered before the snapshot (both under clMu), so
// every concurrent write is either in the snapshot or dirty-tracked.
func (s *Server) handleMigrate(m *proto.Msg, cs *connState, out chan proto.Outgoing) *proto.Msg {
	newRing, err := parseRingMsg(m)
	if err != nil {
		return errMsg(m.Seq, "%v", err)
	}
	if !newRing.Contains(m.Key) {
		return errMsg(m.Seq, "store: migrate requester %q not in candidate ring", m.Key)
	}
	if cs.mig != nil {
		return errMsg(m.Seq, "store: migration already active on this connection")
	}
	requester := m.Key
	om := &outMigration{
		requester: requester,
		epoch:     m.Epoch,
		owns:      func(key string) bool { return newRing.OwnerAddr(key) == requester },
	}
	s.clMu.Lock()
	s.outMigs = append(s.outMigs, om)
	s.clMu.Unlock()
	cs.mig = om
	s.c.MigrationsOut.Inc()
	// Exhaustiveness without holding the write lock across the O(keys)
	// scan: registration (above) happens-before the snapshot, so a
	// write is either complete before registration (in the snapshot),
	// or sees the migration and dirty-tracks. A write that does both —
	// lands mid-snapshot and dirty-tracks — is streamed twice, which
	// Restore's version guard makes harmless.
	done, moved := s.streamRange(out, m.Seq, om.owns, &om.dirty)
	s.c.KeysMigratedOut.Add(uint64(moved))
	return done
}

// handleMigrateAck switches the migrated range to forwarding and
// answers the adopter's ACK — the answer is the adopter's signal that
// the handoff is complete, so the coordinator publishes only after
// this succeeds.
//
// Under the write lock (writes block for this instant) the donor
// flips the range to forwarding, collects the final write tail, and
// pushes a version fence to the adopter: the adopter bumps its version
// counter past the donor's switch-time counter before any forwarded
// write can be assigned a version, so adopter versions always order
// after every donor version a cache may hold. The tail itself is
// pushed outside the lock with donor-assigned versions under restore
// semantics — idempotent and never clobbering the newer forwarded
// writes it may interleave with.
//
// If the fence fails the switch is rolled back (writes stay local and
// dirty-tracked) and the ACK is answered with an error: the adopter
// reports failure, the coordinator does not publish, and a retried
// join re-streams idempotently. A failed tail transfer is likewise an
// error — the tail still lives in the donor's authority, so the retry
// re-streams it.
func (s *Server) handleMigrateAck(seq uint64, cs *connState) *proto.Msg {
	om := cs.mig
	if om == nil {
		return errMsg(seq, "store: migrate-ack without an active migration")
	}
	// The fence runs under the write lock, so it gets its own client
	// with tight timeouts, pre-dialed before the lock is taken: if the
	// adopter died between DONE and ACK, the switch aborts here with
	// zero stall, and a mid-fence death stalls the store for at most
	// fenceTimeout rather than a full default request timeout.
	fencer := client.New(om.requester, client.Options{
		MaxConns: 1, DialTimeout: fenceTimeout, RequestTimeout: fenceTimeout, MaxAttempts: 1,
	})
	defer fencer.Close()
	if err := fencer.Ping(); err != nil {
		return errMsg(seq, "store: adopter %s unreachable at switch: %v", om.requester, err)
	}
	s.clMu.Lock()
	om.forward = true
	tail := om.dirty.take()
	if err := fencer.Restore(nil, nil, s.auth.Version()); err != nil {
		om.forward = false
		om.dirty.add(tail...)
		s.clMu.Unlock()
		return errMsg(seq, "store: version fence to %s: %v", om.requester, err)
	}
	s.clMu.Unlock()

	for entries := s.resolveEntries(tail); len(entries) > 0; {
		var ops []proto.BatchOp
		ops, entries = nextChunk(entries)
		if err := s.peer(om.requester).Restore(ops, nil, 0); err != nil {
			return errMsg(seq, "store: transferring %d-write tail to %s: %v", len(tail), om.requester, err)
		}
	}
	return &proto.Msg{Type: proto.MsgPong, Seq: seq}
}

// abortMigration discards a not-yet-forwarding migration whose
// connection died (the adopter crashed or timed out mid-pull): writes
// stayed local, so dropping the dirty tracking is safe — the
// coordinator will not publish the ring the stream was feeding.
func (s *Server) abortMigration(om *outMigration) {
	s.clMu.Lock()
	defer s.clMu.Unlock()
	if om.forward {
		return // handoff completed; forwarding must survive the conn
	}
	kept := s.outMigs[:0]
	for _, m := range s.outMigs {
		if m != om {
			kept = append(kept, m)
		}
	}
	s.outMigs = kept
}

// handleRelease installs a published ring: keys the ring assigns
// outside this store's replica set are dropped (their owners and
// replicas now hold them), completed migrations at or below the epoch
// are retired (the ring subsumes their forwarding), and future
// requests for unowned keys forward to the owners.
func (s *Server) handleRelease(m *proto.Msg) *proto.Msg {
	newRing, err := parseRingMsg(m)
	if err != nil {
		return errMsg(m.Seq, "%v", err)
	}
	if err := s.installPublishedRing(m.Epoch, newRing, m.Key, int(m.Replicas)); err != nil {
		return errMsg(m.Seq, "%v", err)
	}
	return &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
}

// installPublishedRing applies a published ring — from a coordinator
// release or from heartbeat anti-entropy. Under the write lock it
// installs the ring/epoch/replication factor, retires migrations the
// publish subsumes, and drops the keys outside this store's replica
// set; outside the lock it warm-starts the policy tracker for keys a
// promotion just made local and (re)starts the replica bootstrap
// syncs the new topology calls for.
func (s *Server) installPublishedRing(epoch uint64, newRing *ring.Ring, self string, replicas int) error {
	if replicas < 1 {
		replicas = 1
	}
	member := newRing.Contains(self)
	keep := func(key string) bool { return member && newRing.IsReplica(self, key, replicas) }
	s.clMu.Lock()
	if epoch < s.clusterEpoch {
		s.clMu.Unlock()
		return fmt.Errorf("store: release for stale ring epoch %d (at %d)", epoch, s.clusterEpoch)
	}
	oldRing := s.clusterRing
	s.clusterEpoch = epoch
	s.clusterRing = newRing
	s.selfAddr = self
	s.replicas = replicas
	kept := s.outMigs[:0]
	for _, om := range s.outMigs {
		if om.epoch > epoch {
			kept = append(kept, om)
		}
	}
	s.outMigs = kept
	dropped := s.auth.ReleaseNotOwned(keep)
	s.clMu.Unlock()
	s.c.KeysReleased.Add(uint64(dropped))
	s.warmStartPromoted(newRing, self)
	if member && oldRing != nil {
		// Keys this install just promoted us to own (their previous
		// owner left the ring without a handoff — a failover): the dead
		// owner's final, never-pushed invalidates are lost with it, so
		// push our own on the next flush and let the caches refetch.
		// A clean join/drain never takes this path: its adopters
		// install the candidate ring during the adopt phase, so old
		// and new owner agree by the time the release lands.
		for _, e := range s.auth.SnapshotOwned(func(key string) bool {
			return newRing.OwnerAddr(key) == self && oldRing.OwnerAddr(key) != self
		}) {
			s.fwdDirty.add(e.Key)
		}
	}
	s.syncReplicas(epoch, newRing, self, replicas)
	return nil
}

// ---- Adopter side ----

// handleAdopt pulls the key ranges the candidate ring assigns to this
// store from each donor, then installs the ring. It blocks the calling
// (coordinator) connection until the handoff is applied; the
// coordinator publishes the ring only after this returns OK.
func (s *Server) handleAdopt(m *proto.Msg) *proto.Msg {
	newRing, err := parseRingMsg(m)
	if err != nil {
		return errMsg(m.Seq, "%v", err)
	}
	if !newRing.Contains(m.Key) {
		return errMsg(m.Seq, "store: adopt identity %q not in candidate ring", m.Key)
	}
	for _, donor := range m.Donors {
		if donor == m.Key {
			continue
		}
		if err := s.pullFrom(donor, m); err != nil {
			return errMsg(m.Seq, "store: adopting from %s: %v", donor, err)
		}
	}
	s.clMu.Lock()
	if m.Epoch > s.clusterEpoch || s.clusterRing == nil {
		s.clusterEpoch = m.Epoch
		s.clusterRing = newRing
		s.selfAddr = m.Key
		// Replicate forwarded writes from the first accepted one: the
		// candidate ring's replica sets are live before the publish.
		if r := int(m.Replicas); r > 1 {
			s.replicas = r
		}
	}
	s.clMu.Unlock()
	s.c.MigrationsIn.Inc()
	return &proto.Msg{Type: proto.MsgPong, Seq: m.Seq}
}

// pullFrom runs one MIGRATE pull against a donor, warm-starting the
// policy tracker from the donor's counts, and ACKs once the stream —
// the donor's version counter included — is folded in: only then may
// the donor start forwarding writes here.
func (s *Server) pullFrom(donor string, m *proto.Msg) error {
	req := &proto.Msg{Type: proto.MsgMigrate, Seq: 1, Key: m.Key,
		Epoch: m.Epoch, Version: m.Version, Nodes: m.Nodes}
	restored, err := s.pullRange(donor, req, false, func(w *proto.Writer, read func() (*proto.Msg, error)) error {
		if err := w.WriteMsg(&proto.Msg{Type: proto.MsgMigrateAck, Seq: 2}); err != nil {
			return fmt.Errorf("sending ack: %w", err)
		}
		// The handoff is complete only once the donor confirms the
		// forward switch (version fence + write tail transferred):
		// without this confirmation the coordinator must not publish,
		// or donor-acknowledged writes could be released away before
		// they reach us.
		confirm, err := read()
		if err != nil {
			return fmt.Errorf("reading ack confirmation: %w", err)
		}
		if confirm.Type == proto.MsgErr {
			return fmt.Errorf("donor failed the forward switch: %s", confirm.Err)
		}
		if confirm.Type != proto.MsgPong {
			return fmt.Errorf("unexpected %v as ack confirmation", confirm.Type)
		}
		return nil
	})
	s.c.KeysMigratedIn.Add(restored)
	return err
}
