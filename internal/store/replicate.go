// Shard replication and failover: the store-side half of keeping the
// freshness guarantee alive through a crash.
//
// Under a replication factor R > 1, every key lives on its ring owner
// (the primary) plus the R−1 next distinct ring successors (the
// replicas, ring.Replicas). The primary pushes each accepted write to
// its replicas (dispatchWrites, batch.go) and withholds the client's ack
// until every replica answered (pendingWrite.legDone) — so an acknowledged
// write survives the primary's crash. Replicas apply the pushes under restore semantics
// and bank the attached tracker counts (applyRestore, migrate.go); when
// a failover publishes a ring without the primary, the replica is
// already the new ring owner of those arcs (a ring successor inherits
// exactly the arcs of a removed node), its version counter already
// orders past every version the dead primary acknowledged, and its
// policy engine warm-starts from the banked counts.
//
// Topology changes (joins, drains, failovers) re-derive replica sets;
// a store that just became a replica of some primary bootstraps the
// backlog with a REPSYNC pull — the range-transfer stream of migrate.go,
// ending at MIGRATEDONE — while new writes flow to it live. A write can
// land in both the snapshot and the live pushes; Restore dedups.
//
// Liveness is lease-based: each store heartbeats the coordinator once
// per HeartbeatInterval, carrying its authority version counter (the
// failure detector's promotion fence). The heartbeat response is the
// current published ring, so heartbeats double as ring anti-entropy
// for a store that missed a release.
package store

import (
	"context"
	"time"

	"freshcache/internal/client"
	"freshcache/internal/cluster"
	"freshcache/internal/proto"
	"freshcache/internal/ring"
	"freshcache/internal/xrand"
)

// repSyncAttempts bounds a replica bootstrap's retries per (primary,
// epoch); a persistent failure is abandoned until the next ring epoch
// re-triggers it.
const repSyncAttempts = 3

// replicaTargetsLocked appends to dst the peers that must hold key before
// its write may be acknowledged: key's replica set under the current
// ring, minus this store. Caller holds clMu (read suffices).
func (s *Server) replicaTargetsLocked(dst []string, key string) []string {
	if s.replicas <= 1 || s.clusterRing == nil {
		return dst
	}
	base := len(dst)
	dst = s.clusterRing.AppendReplicas(dst, key, s.replicas)
	for i := base; i < len(dst); i++ {
		if dst[i] == s.selfAddr {
			return append(dst[:i], dst[i+1:]...)
		}
	}
	return dst
}

// handleRepSync serves a replica's bootstrap pull: stream every key the
// attached ring makes this store the primary of with the requester in
// its replica set. The attached ring is installed first (if newer) so
// live writes replicate to the requester from here on: a write either
// lands before the snapshot (streamed) or after the install (pushed
// live) — both is possible and Restore dedups it.
func (s *Server) handleRepSync(m *proto.Msg, out chan proto.Outgoing) *proto.Msg {
	newRing, err := parseRingMsg(m)
	if err != nil {
		return errMsg(m.Seq, "%v", err)
	}
	if len(m.Donors) != 1 {
		return errMsg(m.Seq, "store: repsync names %d primaries, want 1", len(m.Donors))
	}
	self, replica := m.Donors[0], m.Key
	replicas := int(m.Replicas)
	if replicas < 2 {
		return errMsg(m.Seq, "store: repsync under replication factor %d", replicas)
	}
	if !newRing.Contains(replica) || !newRing.Contains(self) {
		return errMsg(m.Seq, "store: repsync parties not in the attached ring")
	}
	s.maybeInstallRing(m.Epoch, newRing, self, replicas)
	done, _ := s.streamRange(out, m.Seq, func(key string) bool {
		return newRing.OwnerAddr(key) == self && newRing.IsReplica(replica, key, replicas)
	}, nil)
	s.c.RepSyncsServed.Inc()
	return done
}

// maybeInstallRing installs a ring only when it advances this store's
// view — the idempotent form used by anti-entropy paths that may carry
// a ring already installed.
func (s *Server) maybeInstallRing(epoch uint64, r *ring.Ring, self string, replicas int) {
	s.clMu.RLock()
	cur, known := s.clusterEpoch, s.clusterRing != nil
	s.clMu.RUnlock()
	if known && epoch <= cur {
		return
	}
	if err := s.installPublishedRing(epoch, r, self, replicas); err != nil {
		s.cfg.Logger.Printf("store %s: installing ring epoch %d: %v", s.cfg.ShardID, epoch, err)
	}
}

// warmStartPromoted folds banked replica tracker counts into the
// engine for keys a ring install just made this store the owner of,
// and drops banked counts for keys outside its replica set (their
// entries left the authority with the same install).
func (s *Server) warmStartPromoted(newRing *ring.Ring, self string) {
	s.clMu.RLock()
	replicas := s.replicas
	s.clMu.RUnlock()
	member := newRing.Contains(self)
	s.repMu.Lock()
	for k, f := range s.pendingFreqs {
		switch {
		case member && newRing.OwnerAddr(k) == self:
			s.engine.WarmStart(k, f.Reads, f.Writes)
			delete(s.pendingFreqs, k)
		case !member || !newRing.IsReplica(self, k, replicas):
			delete(s.pendingFreqs, k)
		}
	}
	s.repMu.Unlock()
}

// syncReplicas (re)starts the replica bootstrap pulls a freshly
// installed ring calls for: one per primary whose arcs now include
// this store in their replica walk, deduplicated by ring epoch so a
// re-delivered publish does not re-stream.
func (s *Server) syncReplicas(epoch uint64, newRing *ring.Ring, self string, replicas int) {
	if replicas <= 1 || !newRing.Contains(self) {
		return
	}
	s.repMu.Lock()
	for _, primary := range newRing.ReplicaSources(self, replicas) {
		if s.repSyncing[primary] >= epoch {
			continue
		}
		s.repSyncing[primary] = epoch
		s.wg.Add(1)
		go s.runRepSync(primary, epoch, newRing, self, replicas)
	}
	s.repMu.Unlock()
}

// runRepSync pulls one primary's backlog — a REPSYNC range pull whose
// entries, version fence and tracker counts are banked for a promotion.
// Retried a few times; a persistent failure is logged and left for the
// next epoch (or the failure detector, if the primary is truly gone).
func (s *Server) runRepSync(primary string, epoch uint64, r *ring.Ring, self string, replicas int) {
	defer s.wg.Done()
	req := &proto.Msg{Type: proto.MsgRepSync, Seq: 1, Epoch: epoch,
		Version: uint64(r.VirtualNodes()), Replicas: uint32(replicas),
		Key: self, Nodes: r.Nodes(), Donors: []string{primary}}
	var lastErr error
	for attempt := 0; attempt < repSyncAttempts; attempt++ {
		select {
		case <-s.closed:
			return
		default:
		}
		if _, lastErr = s.pullRange(primary, req, true, nil); lastErr == nil {
			s.c.RepSyncs.Inc()
			return
		}
		select {
		case <-s.closed:
			return
		case <-time.After(time.Duration(attempt+1) * 100 * time.Millisecond):
		}
	}
	s.cfg.Logger.Printf("store %s: replica sync from %s (epoch %d) abandoned: %v",
		s.cfg.ShardID, primary, epoch, lastErr)
	s.repMu.Lock()
	if s.repSyncing[primary] == epoch {
		s.repSyncing[primary] = epoch - 1 // let the next install retry
	}
	s.repMu.Unlock()
}

// heartbeatLoop renews this store's liveness lease at the coordinator
// group once per HeartbeatInterval. Each beat carries the authority
// version counter (the failure detector's promotion fence input) plus
// the current miss streak, and each response carries the current
// published ring — anti-entropy for a store that missed a release.
//
// ClusterAddr may list several coordinators; the CoordClient follows
// NOTLEADER redirects so beats land on whichever coordinator leads.
// While the group is unreachable the loop backs off exponentially
// (doubling per miss, capped at 4× the interval) with ±25% jitter, so
// a restarted coordinator is not greeted by every store's retry burst
// on the same tick.
func (s *Server) heartbeatLoop(ctx context.Context) {
	defer s.wg.Done()
	timeout := 2 * s.cfg.HeartbeatInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	hb := cluster.NewCoordClient(s.cfg.ClusterAddr, client.Options{
		MaxConns: 1, DialTimeout: timeout, RequestTimeout: timeout, MaxAttempts: 1,
	})
	defer hb.Close()
	base := s.cfg.HeartbeatInterval
	maxDelay := 4 * base
	rng := xrand.New(uint64(time.Now().UnixNano()), 1)
	jitter := func(d time.Duration) time.Duration {
		// ±25%: spread the retries of independently-backing-off stores.
		return d + time.Duration((rng.Float64()-0.5)*0.5*float64(d))
	}
	timer := time.NewTimer(jitter(base))
	defer timer.Stop()
	var misses uint64
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		ri, err := hb.Heartbeat(s.cfg.AdvertiseAddr, s.auth.Version(), misses)
		if err != nil {
			misses++
			s.hbMisses.Store(misses)
			if misses == 3 { // one line per outage, not per beat
				s.cfg.Logger.Printf("store %s: coordinators %s unreachable for %d heartbeats: %v",
					s.cfg.ShardID, s.cfg.ClusterAddr, misses, err)
			}
			delay := base << min(misses, 8)
			if delay > maxDelay || delay <= 0 {
				delay = maxDelay
			}
			timer.Reset(jitter(delay))
			continue
		}
		if misses >= 3 {
			s.cfg.Logger.Printf("store %s: coordinators %s reachable again after %d missed heartbeats",
				s.cfg.ShardID, s.cfg.ClusterAddr, misses)
		}
		misses = 0
		s.hbMisses.Store(0)
		timer.Reset(jitter(base))
		s.c.HeartbeatsSent.Inc()
		s.clMu.RLock()
		cur, known := s.clusterEpoch, s.clusterRing != nil
		s.clMu.RUnlock()
		if known && ri.Epoch <= cur {
			continue
		}
		r, err := ring.New(ri.Nodes, ri.VirtualNodes)
		if err != nil {
			s.cfg.Logger.Printf("store %s: heartbeat carried a bad ring: %v", s.cfg.ShardID, err)
			continue
		}
		s.maybeInstallRing(ri.Epoch, r, s.cfg.AdvertiseAddr, ri.Replicas)
	}
}
