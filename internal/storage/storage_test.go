package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"gridrep/internal/wire"
)

func entry(inst uint64, bal wire.Ballot, op string, withState bool) wire.Entry {
	e := wire.Entry{
		Instance: inst,
		Bal:      bal,
		Prop: wire.Proposal{
			Reqs:    []wire.Request{{Client: wire.ClientIDBase, Seq: inst, Kind: wire.KindWrite, Op: []byte(op)}},
			Results: [][]byte{[]byte("r" + op)},
		},
	}
	if withState {
		e.Prop.HasState = true
		e.Prop.State = []byte("state-" + op)
	}
	return e
}

// storeFactory lets every test run against both implementations.
func stores(t *testing.T) map[string]func(t *testing.T) Store {
	return map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMem() },
		"file": func(t *testing.T) Store {
			s, err := OpenFile(filepath.Join(t.TempDir(), "wal"))
			if err != nil {
				t.Fatal(err)
			}
			s.Sync = false // tests don't need real fsync latency
			return s
		},
	}
}

func TestStoreBasics(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()

			b1 := wire.Ballot{Round: 1, Node: 0}
			b2 := wire.Ballot{Round: 2, Node: 1}
			if err := s.SetPromised(b1); err != nil {
				t.Fatal(err)
			}
			if err := s.PutAccepted([]wire.Entry{entry(1, b1, "a", true)}, b1); err != nil {
				t.Fatal(err)
			}
			if err := s.SetPromised(b2); err != nil {
				t.Fatal(err)
			}
			if err := s.SetChosen(1); err != nil {
				t.Fatal(err)
			}

			st, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Promised.Equal(b2) {
				t.Errorf("Promised = %v, want %v", st.Promised, b2)
			}
			if !st.MaxAccepted.Equal(b1) {
				t.Errorf("MaxAccepted = %v, want %v", st.MaxAccepted, b1)
			}
			if st.Chosen != 1 {
				t.Errorf("Chosen = %d, want 1", st.Chosen)
			}
			e, ok := st.Accepted.Get(1)
			if !ok || string(e.Prop.Reqs[0].Op) != "a" || !e.Prop.HasState {
				t.Errorf("Accepted.Get(1) = %+v", e)
			}
		})
	}
}

func TestPromiseMonotonic(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			hi := wire.Ballot{Round: 9, Node: 1}
			lo := wire.Ballot{Round: 3, Node: 0}
			s.SetPromised(hi)
			s.SetPromised(lo) // must be ignored
			st, _ := s.Load()
			if !st.Promised.Equal(hi) {
				t.Errorf("promise regressed to %v", st.Promised)
			}
		})
	}
}

func TestChosenMonotonic(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			s.SetChosen(10)
			s.SetChosen(4) // must be ignored
			st, _ := s.Load()
			if st.Chosen != 10 {
				t.Errorf("chosen regressed to %d", st.Chosen)
			}
		})
	}
}

func TestCompactDropsOldStateKeepsRequests(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			b := wire.Ballot{Round: 1, Node: 0}
			s.PutAccepted([]wire.Entry{
				entry(1, b, "a", true), entry(2, b, "b", true), entry(3, b, "c", true),
			}, b)
			if err := s.Compact(3); err != nil {
				t.Fatal(err)
			}
			st, _ := s.Load()
			for inst := uint64(1); inst <= 2; inst++ {
				e, _ := st.Accepted.Get(inst)
				if e.Prop.HasState {
					t.Errorf("instance %d kept state after compact", inst)
				}
				if len(e.Prop.Reqs) == 0 {
					t.Errorf("instance %d lost its request", inst)
				}
			}
			if e3, _ := st.Accepted.Get(3); !e3.Prop.HasState {
				t.Error("latest instance must keep state")
			}
		})
	}
}

func TestLoadIsolation(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			b := wire.Ballot{Round: 1, Node: 0}
			s.PutAccepted([]wire.Entry{entry(1, b, "a", true)}, b)
			st, _ := s.Load()
			st.Accepted.Put(entry(99, b, "evil", false))
			st.Promised = wire.Ballot{Round: 100, Node: 3}
			st2, _ := s.Load()
			if _, ok := st2.Accepted.Get(99); ok {
				t.Error("Load must return an isolated copy")
			}
			if st2.Promised.Equal(st.Promised) {
				t.Error("Load must not share the promised ballot")
			}
		})
	}
}

func TestFileRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = false
	b := wire.Ballot{Round: 5, Node: 2}
	s.SetPromised(b)
	s.PutAccepted([]wire.Entry{entry(7, b, "x", true)}, b)
	s.SetChosen(7)
	s.Close()

	// Reopen: state must replay identically.
	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, _ := s2.Load()
	if !st.Promised.Equal(b) || st.Chosen != 7 {
		t.Fatalf("replayed state wrong: %+v", st)
	}
	e, _ := st.Accepted.Get(7)
	if string(e.Prop.Reqs[0].Op) != "x" || string(e.Prop.State) != "state-x" {
		t.Fatalf("replayed entry wrong: %+v", e)
	}
}

func TestFileTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, _ := OpenFile(path)
	s.Sync = false
	b := wire.Ballot{Round: 1, Node: 0}
	s.SetPromised(b)
	s.SetChosen(3)
	s.Close()

	// Simulate a torn write: append garbage.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{0x55, 0x01, 0x02})
	f.Close()

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("torn tail must not fail open: %v", err)
	}
	defer s2.Close()
	st, _ := s2.Load()
	if !st.Promised.Equal(b) || st.Chosen != 3 {
		t.Fatalf("state lost after torn tail: %+v", st)
	}
	// The store must be writable again after truncation.
	if err := s2.SetChosen(4); err != nil {
		t.Fatal(err)
	}
}

func TestFileCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, _ := OpenFile(path)
	s.Sync = false
	s.SetChosen(1)
	off, _ := s.f.Seek(0, 2)
	s.SetChosen(2)
	s.Close()

	// Flip a byte inside the second record's body.
	data, _ := os.ReadFile(path)
	data[off+2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, _ := s2.Load()
	if st.Chosen != 1 {
		t.Fatalf("Chosen = %d, want replay to stop at 1", st.Chosen)
	}
}

func TestFileRewriteSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, _ := OpenFile(path)
	s.Sync = false
	s.rewriteAt = 1 // force rewrite on first Compact
	b := wire.Ballot{Round: 2, Node: 1}
	s.SetPromised(b)
	s.PutAccepted([]wire.Entry{entry(1, b, "a", true), entry(2, b, "b", true)}, b)
	s.SetChosen(2)
	if err := s.Compact(2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, _ := s2.Load()
	if st.Chosen != 2 || !st.Promised.Equal(b) || st.Accepted.Len() != 2 {
		t.Fatalf("snapshot replay wrong: %+v", st)
	}
	if e1, _ := st.Accepted.Get(1); e1.Prop.HasState {
		t.Error("compacted entry must have no state after snapshot")
	}
	if e2, _ := st.Accepted.Get(2); !e2.Prop.HasState {
		t.Error("latest entry must keep state in snapshot")
	}
}

// TestMemFileEquivalence drives both stores through a random mutation
// sequence and requires identical final states.
func TestMemFileEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		mem := NewMem()
		file, err := OpenFile(filepath.Join(t.TempDir(), "wal"))
		if err != nil {
			t.Fatal(err)
		}
		file.Sync = false
		defer file.Close()
		both := []Store{mem, file}
		var inst uint64
		for _, op := range ops {
			inst++
			b := wire.Ballot{Round: uint64(op%7) + 1, Node: wire.NodeID(op % 3)}
			for _, s := range both {
				switch op % 4 {
				case 0:
					s.SetPromised(b)
				case 1:
					s.PutAccepted([]wire.Entry{entry(inst, b, "op", true)}, b)
				case 2:
					s.SetChosen(uint64(op))
				case 3:
					s.Compact(inst)
				}
			}
		}
		a, _ := mem.Load()
		bSt, _ := file.Load()
		if !a.Promised.Equal(bSt.Promised) || !a.MaxAccepted.Equal(bSt.MaxAccepted) ||
			a.Chosen != bSt.Chosen || a.Accepted.Len() != bSt.Accepted.Len() {
			return false
		}
		same := true
		a.Accepted.Ascend(0, 0, func(v wire.Entry) bool {
			w, ok := bSt.Accepted.Get(v.Instance)
			if !ok || v.Prop.HasState != w.Prop.HasState {
				same = false
			}
			return same
		})
		return same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFileTailBitFlipTruncates is the tail-corruption regression test:
// a bit flip inside the last record of a real WAL (a torn or silently
// corrupted final write) must make replay truncate at that record, keep
// everything before it, and leave the store writable — and a record
// appended after the truncation must survive a further reopen (no
// corrupt garbage may linger past the new tail).
func TestFileTailBitFlipTruncates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = false
	b := wire.Ballot{Round: 2, Node: 1}
	s.SetPromised(b)
	s.PutAccepted([]wire.Entry{entry(1, b, "a", true), entry(2, b, "b", true)}, b)
	s.SetChosen(2)
	off, _ := s.f.Seek(0, 2) // start of the record we are about to tear
	s.PutAccepted([]wire.Entry{entry(3, b, "c", true)}, b)
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatalf("bit-flipped tail must not fail open: %v", err)
	}
	st, _ := s2.Load()
	if !st.Promised.Equal(b) || st.Chosen != 2 {
		t.Fatalf("state before the corrupt record lost: %+v", st)
	}
	if _, ok := st.Accepted.Get(3); ok {
		t.Fatal("corrupt tail record must be dropped")
	}
	if e2, ok := st.Accepted.Get(2); !ok || string(e2.Prop.Reqs[0].Op) != "b" {
		t.Fatalf("entry 2 lost: %+v", e2)
	}
	// The store must accept appends past the truncation point, and those
	// appends must be replayable: no corrupt bytes may survive past the
	// new tail to poison the next recovery.
	if err := s2.PutAccepted([]wire.Entry{entry(3, b, "c2", true)}, b); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	s3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	st3, _ := s3.Load()
	e3, ok := st3.Accepted.Get(3)
	if !ok || string(e3.Prop.Reqs[0].Op) != "c2" {
		t.Fatalf("re-appended record lost after second reopen: %+v", e3)
	}
}

// TestSnapshotMembersPruneReplay drives the reconfiguration records —
// service snapshot, membership, prune — through a real WAL and requires
// a reopen to replay them exactly (DESIGN.md §12).
func TestSnapshotMembersPruneReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = false
	b := wire.Ballot{Round: 1, Node: 0}
	var ents []wire.Entry
	for i := uint64(1); i <= 5; i++ {
		ents = append(ents, entry(i, b, fmt.Sprintf("op%d", i), true))
	}
	s.PutAccepted(ents, b)
	s.SetChosen(5)
	if err := s.SaveSnapshot([]byte("snap@4"), 4); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMembers([]wire.NodeID{0, 1, 2, 3}, []wire.NodeID{7}, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.PruneTo(4); err != nil { // discards instances 1..3
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, _ := s2.Load()
	if string(st.ServiceSnap) != "snap@4" || st.ServiceSnapAt != 4 {
		t.Fatalf("snapshot replay wrong: %q at %d", st.ServiceSnap, st.ServiceSnapAt)
	}
	if len(st.Members) != 4 || st.Members[3] != 3 || len(st.Learners) != 1 || st.Learners[0] != 7 || st.MembersAt != 3 {
		t.Fatalf("membership replay wrong: %v %v at %d", st.Members, st.Learners, st.MembersAt)
	}
	if st.PrunedTo != 3 {
		t.Fatalf("PrunedTo = %d, want 3", st.PrunedTo)
	}
	if _, ok := st.Accepted.Get(2); ok {
		t.Fatal("pruned entry 2 must not replay")
	}
	for i := uint64(4); i <= 5; i++ {
		if _, ok := st.Accepted.Get(i); !ok {
			t.Fatalf("retained entry %d lost", i)
		}
	}
}

// TestPruneClampedToSnapshot requires both stores to refuse to discard
// log entries the durable service snapshot does not cover — the prune
// safety guard.
func TestPruneClampedToSnapshot(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			b := wire.Ballot{Round: 1, Node: 0}
			var ents []wire.Entry
			for i := uint64(1); i <= 6; i++ {
				ents = append(ents, entry(i, b, "x", false))
			}
			s.PutAccepted(ents, b)
			s.SaveSnapshot([]byte("s"), 2)
			// Ask to prune past the snapshot: only 1..2 may go.
			if err := s.PruneTo(6); err != nil {
				t.Fatal(err)
			}
			st, _ := s.Load()
			if st.PrunedTo != 2 {
				t.Fatalf("PrunedTo = %d, want clamp at snapshot index 2", st.PrunedTo)
			}
			if _, ok := st.Accepted.Get(3); !ok {
				t.Fatal("entry 3 above the snapshot must survive the clamped prune")
			}
			if _, ok := st.Accepted.Get(2); ok {
				t.Fatal("entry 2 under the snapshot should be pruned")
			}
		})
	}
}

// TestFileCheckpointKeepsReconfigState folds snapshot + membership +
// prune state through a synchronous checkpoint rewrite and a reopen.
func TestFileCheckpointKeepsReconfigState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Sync = false
	b := wire.Ballot{Round: 3, Node: 2}
	s.PutAccepted([]wire.Entry{entry(1, b, "a", true), entry(2, b, "b", true)}, b)
	s.SetChosen(2)
	s.SaveSnapshot([]byte("chk"), 1)
	s.SetMembers([]wire.NodeID{0, 1}, nil, 2)
	s.PruneTo(2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, _ := s2.Load()
	if string(st.ServiceSnap) != "chk" || st.ServiceSnapAt != 1 || st.PrunedTo != 1 ||
		len(st.Members) != 2 || st.MembersAt != 2 {
		t.Fatalf("checkpoint lost reconfig state: %+v", st)
	}
	if _, ok := st.Accepted.Get(2); !ok {
		t.Fatal("retained entry 2 lost across checkpoint")
	}
}

func TestFilePoisonedAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetPromised(wire.Ballot{Round: 1, Node: 0}); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	// Pull the file out from under the store: the next append fails and
	// must poison every later call (fail-stop).
	st.f.Close()
	first := st.SetPromised(wire.Ballot{Round: 2, Node: 0})
	if first == nil {
		t.Fatal("append on closed file should fail")
	}
	if err := st.SetChosen(99); err == nil {
		t.Error("SetChosen after poison should fail")
	}
	if err := st.PutAccepted([]wire.Entry{entry(1, wire.Ballot{Round: 2, Node: 0}, "x", false)}, wire.Ballot{Round: 2, Node: 0}); err == nil {
		t.Error("PutAccepted after poison should fail")
	}
	if err := st.Compact(1); err == nil {
		t.Error("Compact after poison should fail")
	}
	if _, err := st.Load(); err == nil {
		t.Error("Load after poison should fail")
	}
	// The poison is sticky and self-identifying.
	if again := st.SetChosen(100); again == nil || again.Error() != first.Error() {
		t.Errorf("poison not sticky: first=%v again=%v", first, again)
	}
	// Even a no-op mutation (stale ballot) must refuse.
	if err := st.SetPromised(wire.Ballot{Round: 0, Node: 0}); err == nil {
		t.Error("stale SetPromised after poison should fail")
	}
}

// TestSaveSnapshotKeepsCallerBytes pins the Store.SaveSnapshot contract:
// the store keeps the caller's snapshot slice instead of copying it, and
// so do the states Load hands out.
func TestSaveSnapshotKeepsCallerBytes(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			snap := bytes.Repeat([]byte("s"), 4096)
			if err := s.SaveSnapshot(snap, 7); err != nil {
				t.Fatal(err)
			}
			st, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			if st.ServiceSnapAt != 7 || len(st.ServiceSnap) != len(snap) || &st.ServiceSnap[0] != &snap[0] {
				t.Fatalf("loaded snapshot at %d (%d bytes) is not the saved slice", st.ServiceSnapAt, len(st.ServiceSnap))
			}
		})
	}
}
