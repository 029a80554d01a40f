// Package shard routes client requests across N independent consensus
// groups hosted in one replica process (DESIGN.md §13).
//
// Each group is a complete instance of the paper's protocol — its own
// multi-instance Paxos state machine, Ω elector, and WAL — deciding a
// disjoint partition of the service key space. Routing is a pure
// function of the request: FNV-1a over the operation's shard key
// (service.Sharder when the service can extract one, the whole
// operation encoding otherwise) modulo the group count. Every replica
// computes the same route, so a request reaches the same group no
// matter which replica's multiplexer inspects it.
//
// Transactions are pinned to the group of their first operation: the
// client API is synchronous (one outstanding request per transaction)
// and links are FIFO, so every replica observes the same first
// operation and pins identically. A later operation that routes to a
// different group fails with wire.StatusCrossGroup — cross-group
// transactions are explicitly out of scope for this layer.
package shard

import (
	"fmt"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// ErrCrossGroup reports a transaction operation that routed to a
// different consensus group than the transaction's pinned group.
var ErrCrossGroup = fmt.Errorf("shard: transaction spans multiple consensus groups")

// Hash is FNV-1a over key — the routing hash. Exposed so tests and
// tools can predict placements.
func Hash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// txnKey identifies one client transaction for pinning.
type txnKey struct {
	client wire.NodeID
	txn    uint64
}

// maxPinned bounds the pin table. Pins are dropped at commit/abort; the
// cap only matters when clients vanish mid-transaction, and 1<<16
// in-flight transactions is far beyond any deployment here.
const maxPinned = 1 << 16

// Router maps requests to groups. It is not safe for concurrent use:
// the multiplexer serializes calls to Route (historically by confining
// them to its pump goroutine; since the sharded fan-in of DESIGN.md §14
// by a mutex, because dispatch runs on per-connection transport
// goroutines).
type Router struct {
	n       int
	sharder service.Sharder // nil: hash whole ops
	pinned  map[txnKey]uint32
	// released remembers the pins of recently committed or aborted
	// transactions, so a client's retransmitted commit/abort still
	// reaches the group that ran the transaction (and answers from its
	// reply cache) instead of the fallback hash's group, whose leader
	// never saw it and would report it lost. Two generations of at
	// most maxPinned each bound the memory.
	released, releasedOld map[txnKey]uint32
}

// NewRouter returns a router over n groups. svc (any replica's service
// instance, used purely for key extraction) is probed for
// service.Sharder; pass nil to always hash whole operations.
func NewRouter(n int, svc service.Service) *Router {
	r := &Router{
		n:           n,
		pinned:      make(map[txnKey]uint32),
		released:    make(map[txnKey]uint32),
		releasedOld: make(map[txnKey]uint32),
	}
	if sh, ok := svc.(service.Sharder); ok {
		r.sharder = sh
	}
	return r
}

// GroupForOp returns the group an operation encoding routes to.
func (r *Router) GroupForOp(op []byte) uint32 {
	if r.n <= 1 {
		return 0
	}
	key := op
	if r.sharder != nil {
		if k, ok := r.sharder.ShardKey(op); ok {
			key = k
		}
	}
	return uint32(Hash(key) % uint64(r.n))
}

// Route returns the consensus group req belongs to. Transaction
// requests are pinned to their first operation's group; a later
// operation hashing elsewhere returns ErrCrossGroup and the caller
// must reply wire.StatusCrossGroup without consuming a consensus
// instance anywhere.
func (r *Router) Route(req *wire.Request) (uint32, error) {
	if r.n <= 1 {
		return 0, nil
	}
	if req.Txn == 0 {
		return r.GroupForOp(req.Op), nil
	}
	k := txnKey{client: req.Client, txn: req.Txn}
	switch req.Kind {
	case wire.KindTxnOp:
		g := r.GroupForOp(req.Op)
		if pinned, ok := r.pinned[k]; ok {
			if pinned != g {
				return 0, ErrCrossGroup
			}
			return pinned, nil
		}
		if len(r.pinned) >= maxPinned {
			// Emergency valve: drop the table rather than grow without
			// bound on leaked transactions. Live retried txns re-pin to
			// the same group because routing is deterministic.
			r.pinned = make(map[txnKey]uint32)
		}
		r.pinned[k] = g
		return g, nil
	case wire.KindTxnCommit, wire.KindTxnAbort:
		if pinned, ok := r.pinned[k]; ok {
			delete(r.pinned, k)
			r.release(k, pinned)
			return pinned, nil
		}
		if g, ok := r.released[k]; ok {
			return g, nil
		}
		if g, ok := r.releasedOld[k]; ok {
			return g, nil
		}
		// Commit/abort of a transaction this router never saw an op for
		// (e.g. an empty transaction, or a pump restart): fall back to a
		// deterministic hash of the transaction identity so all replicas
		// still agree on one group.
		var idkey [16]byte
		for i := 0; i < 8; i++ {
			idkey[i] = byte(uint64(req.Client) >> (8 * i))
			idkey[8+i] = byte(req.Txn >> (8 * i))
		}
		return uint32(Hash(idkey[:]) % uint64(r.n)), nil
	default:
		return r.GroupForOp(req.Op), nil
	}
}

// release records the group a finished transaction was pinned to,
// retiring the older generation when the current one is full.
func (r *Router) release(k txnKey, g uint32) {
	if len(r.released) >= maxPinned {
		r.releasedOld = r.released
		r.released = make(map[txnKey]uint32)
	}
	r.released[k] = g
}

// LeaderRank returns the Ω rank function for group g over a cluster of
// n bootstrap members: group g's preferred leader is replica g mod n,
// then IDs ascending cyclically, so leadership — and with it the
// per-leader execute/fsync/quorum pipelines — spreads across the
// membership. IDs at or above n (replicas joined after bootstrap) rank
// after all bootstrap members, keeping the function injective and
// identical on every replica that booted with the same n.
func LeaderRank(g uint32, n int) func(wire.NodeID) uint64 {
	if n <= 0 {
		n = 1
	}
	pref := uint64(g) % uint64(n)
	return func(id wire.NodeID) uint64 {
		u := uint64(id)
		if u >= uint64(n) {
			return u
		}
		return (u + uint64(n) - pref) % uint64(n)
	}
}
