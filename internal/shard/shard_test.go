package shard

import (
	"errors"
	"fmt"
	"testing"

	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// TestRoutingIsDeterministicAndCovers: the same op always routes to the
// same group, every group receives some keys, and all routes are in
// range.
func TestRoutingIsDeterministicAndCovers(t *testing.T) {
	const n = 4
	r := NewRouter(n, service.NewKV())
	r2 := NewRouter(n, service.NewKV())
	seen := make(map[uint32]int)
	for i := 0; i < 256; i++ {
		op := service.KVPut(fmt.Sprintf("k%03d", i), []byte("v"))
		g := r.GroupForOp(op)
		if g >= n {
			t.Fatalf("group %d out of range", g)
		}
		if g2 := r2.GroupForOp(op); g2 != g {
			t.Fatalf("routers disagree: %d vs %d", g, g2)
		}
		seen[g]++
	}
	for g := uint32(0); g < n; g++ {
		if seen[g] == 0 {
			t.Fatalf("group %d received no keys: %v", g, seen)
		}
	}
}

// TestRoutingFollowsShardKey: ops on the same key route identically no
// matter the opcode or value — the property that keeps one key's
// history inside one group's total order.
func TestRoutingFollowsShardKey(t *testing.T) {
	r := NewRouter(8, service.NewKV())
	put := r.GroupForOp(service.KVPut("alpha", []byte("v1")))
	if g := r.GroupForOp(service.KVGet("alpha")); g != put {
		t.Fatalf("get routed to %d, put to %d", g, put)
	}
	if g := r.GroupForOp(service.KVDelete("alpha")); g != put {
		t.Fatalf("delete routed to %d, put to %d", g, put)
	}
	if g := r.GroupForOp(service.KVAdd("alpha", 7)); g != put {
		t.Fatalf("add routed to %d, put to %d", g, put)
	}
}

// TestRouterFallbackWithoutSharder: a service that cannot extract keys
// still shards (whole-op hashing), deterministically.
func TestRouterFallbackWithoutSharder(t *testing.T) {
	r := NewRouter(4, service.NewNoop())
	op := []byte("some-opaque-op")
	g := r.GroupForOp(op)
	for i := 0; i < 10; i++ {
		if r.GroupForOp(op) != g {
			t.Fatal("fallback routing not deterministic")
		}
	}
}

// findKeys returns two KV keys that route to different groups.
func findKeys(t *testing.T, r *Router) (same, other string) {
	t.Helper()
	base := "k0"
	g0 := r.GroupForOp(service.KVPut(base, nil))
	for i := 1; i < 1000; i++ {
		k := fmt.Sprintf("k%03d", i)
		if r.GroupForOp(service.KVPut(k, nil)) != g0 {
			return base, k
		}
	}
	t.Fatal("no cross-group key pair found")
	return "", ""
}

// TestTxnPinningAndCrossGroup: a transaction is pinned to its first
// op's group; a second op hashing elsewhere is refused with
// ErrCrossGroup, and commit/abort release the pin.
func TestTxnPinningAndCrossGroup(t *testing.T) {
	r := NewRouter(4, service.NewKV())
	k1, k2 := findKeys(t, r)
	g1 := r.GroupForOp(service.KVPut(k1, nil))

	req := func(kind wire.RequestKind, txn uint64, op []byte) *wire.Request {
		return &wire.Request{Client: 100, Seq: 1, Kind: kind, Txn: txn, Op: op}
	}

	// First op pins.
	g, err := r.Route(req(wire.KindTxnOp, 7, service.KVPut(k1, []byte("v"))))
	if err != nil || g != g1 {
		t.Fatalf("pin: g=%d err=%v want %d", g, err, g1)
	}
	// Same-group op passes.
	if g, err = r.Route(req(wire.KindTxnOp, 7, service.KVGet(k1))); err != nil || g != g1 {
		t.Fatalf("same-group op: g=%d err=%v", g, err)
	}
	// Cross-group op refused.
	if _, err = r.Route(req(wire.KindTxnOp, 7, service.KVPut(k2, []byte("v")))); !errors.Is(err, ErrCrossGroup) {
		t.Fatalf("cross-group op: err=%v, want ErrCrossGroup", err)
	}
	// Commit routes to the pinned group and releases the pin.
	if g, err = r.Route(req(wire.KindTxnCommit, 7, nil)); err != nil || g != g1 {
		t.Fatalf("commit: g=%d err=%v", g, err)
	}
	if len(r.pinned) != 0 {
		t.Fatalf("pin not released: %v", r.pinned)
	}

	// A non-transactional request on k2 is unaffected.
	if _, err := r.Route(req(wire.KindWrite, 0, service.KVPut(k2, nil))); err != nil {
		t.Fatalf("plain write: %v", err)
	}
}

// TestTxnCommitRetransmitKeepsPinnedGroup: a client rebroadcasts a
// commit whose first copy already released the pin. The retransmit must
// still route to the group that ran the transaction, not to the
// fallback hash's group, whose leader would report it lost.
func TestTxnCommitRetransmitKeepsPinnedGroup(t *testing.T) {
	r := NewRouter(4, service.NewKV())
	k1, _ := findKeys(t, r)
	g1 := r.GroupForOp(service.KVPut(k1, nil))

	// Pick a transaction whose identity hash lands outside g1, so the
	// fallback would misroute the retransmit.
	var txn uint64
	for txn = 1; ; txn++ {
		g, err := NewRouter(4, service.NewKV()).Route(&wire.Request{Client: 100, Kind: wire.KindTxnCommit, Txn: txn})
		if err != nil {
			t.Fatal(err)
		}
		if g != g1 {
			break
		}
	}

	req := func(kind wire.RequestKind, op []byte) *wire.Request {
		return &wire.Request{Client: 100, Seq: 1, Kind: kind, Txn: txn, Op: op}
	}
	if g, err := r.Route(req(wire.KindTxnOp, service.KVPut(k1, []byte("v")))); err != nil || g != g1 {
		t.Fatalf("pin: g=%d err=%v want %d", g, err, g1)
	}
	for i := 0; i < 3; i++ {
		if g, err := r.Route(req(wire.KindTxnCommit, nil)); err != nil || g != g1 {
			t.Fatalf("commit copy %d: g=%d err=%v want %d", i, g, err, g1)
		}
	}
	if len(r.pinned) != 0 {
		t.Fatalf("pin not released: %v", r.pinned)
	}
}

// TestTxnCommitWithoutPinIsDeterministic: committing a transaction the
// router never pinned (empty txn) still lands on one deterministic
// group on every replica.
func TestTxnCommitWithoutPinIsDeterministic(t *testing.T) {
	a := NewRouter(4, service.NewKV())
	b := NewRouter(4, service.NewKV())
	req := &wire.Request{Client: 42, Seq: 9, Kind: wire.KindTxnCommit, Txn: 3}
	ga, err := a.Route(req)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.Route(req)
	if err != nil {
		t.Fatal(err)
	}
	if ga != gb {
		t.Fatalf("replicas disagree on unpinned commit: %d vs %d", ga, gb)
	}
}

// TestSingleGroupRoutesEverythingToZero: n=1 must short-circuit — no
// hashing, no pinning, group 0 always.
func TestSingleGroupRoutesEverythingToZero(t *testing.T) {
	r := NewRouter(1, service.NewKV())
	for _, req := range []*wire.Request{
		{Kind: wire.KindWrite, Op: service.KVPut("x", nil)},
		{Kind: wire.KindTxnOp, Txn: 5, Op: service.KVPut("y", nil)},
		{Kind: wire.KindTxnCommit, Txn: 5},
	} {
		g, err := r.Route(req)
		if err != nil || g != 0 {
			t.Fatalf("route %v: g=%d err=%v", req.Kind, g, err)
		}
	}
	if len(r.pinned) != 0 {
		t.Fatal("single-group router must not pin")
	}
}

// TestLeaderRank: group g's preferred leader is replica g mod n, ranks
// are injective, and post-bootstrap IDs rank last.
func TestLeaderRank(t *testing.T) {
	const n = 3
	for g := uint32(0); g < 5; g++ {
		rank := LeaderRank(g, n)
		pref := wire.NodeID(g % n)
		for id := wire.NodeID(0); id < n; id++ {
			if id == pref && rank(id) != 0 {
				t.Fatalf("group %d: preferred %v has rank %d", g, id, rank(id))
			}
			if id != pref && rank(id) == 0 {
				t.Fatalf("group %d: %v ties the preferred leader", g, id)
			}
		}
		seen := make(map[uint64]wire.NodeID)
		for id := wire.NodeID(0); id < 6; id++ {
			rk := rank(id)
			if prev, dup := seen[rk]; dup {
				t.Fatalf("group %d: rank %d shared by %v and %v", g, rk, prev, id)
			}
			seen[rk] = id
			if id >= n && rk < n {
				t.Fatalf("group %d: joiner %v ranked %d, before a bootstrap member", g, id, rk)
			}
		}
	}
}
