package storage

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/wire"
)

func openTestFile(t *testing.T, path string) *File {
	t.Helper()
	s, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reopen models a crash: the old File is abandoned (its staged buffer and
// fd die with the process) and the WAL is replayed fresh from disk.
func reopen(t *testing.T, path string) *PersistentState {
	t.Helper()
	s2 := openTestFile(t, path)
	defer s2.Close()
	st, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBufferedFlushDurability: staged records are invisible to a crash
// until Flush; after Flush they survive it.
func TestBufferedFlushDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestFile(t, path)
	defer s.Close()
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	if err := s.SetPromised(b); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAccepted([]wire.Entry{entry(1, b, "a", true)}, b); err != nil {
		t.Fatal(err)
	}
	if !s.Staged() {
		t.Fatal("records should be staged before Flush")
	}
	// The event loop's own view includes staged mutations...
	if st, _ := s.Load(); st.Accepted.Len() != 1 {
		t.Fatal("staged mutation missing from Load")
	}
	// ...but a crash before Flush loses them.
	if st := reopen(t, path); st.Accepted.Len() != 0 || !st.Promised.Equal(wire.Ballot{}) {
		t.Fatalf("staged records must not be durable before Flush: %+v", st)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Staged() {
		t.Fatal("Flush must drain the staging buffer")
	}
	st := reopen(t, path)
	if st.Accepted.Len() != 1 || !st.Promised.Equal(b) {
		t.Fatalf("flushed records must survive a crash: %+v", st)
	}
	if e, ok := st.Accepted.Get(1); !ok || string(e.Prop.Reqs[0].Op) != "a" {
		t.Fatalf("replayed entry wrong: %+v", e)
	}
}

// TestFlushBatchesOneSync: a burst of mutations becomes one batch and one
// device sync.
func TestFlushBatchesOneSync(t *testing.T) {
	s := openTestFile(t, filepath.Join(t.TempDir(), "wal"))
	defer s.Close()
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	for i := uint64(1); i <= 8; i++ {
		if err := s.PutAccepted([]wire.Entry{entry(i, b, "x", false)}, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetChosen(8); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != 9 {
		t.Errorf("Records = %d, want 9", st.Records)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches)
	}
	if st.Syncs != 1 {
		t.Errorf("Syncs = %d, want 1 (one fdatasync per burst)", st.Syncs)
	}
}

// TestChosenCoalescing: under SyncPolicyBatch a chosen-only batch is
// written but never forces its own fsync — it rides the next critical
// batch's sync instead.
func TestChosenCoalescing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestFile(t, path)
	defer s.Close()
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	if err := s.PutAccepted([]wire.Entry{entry(1, b, "a", false)}, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 1 {
		t.Fatalf("Syncs after critical batch = %d, want 1", got)
	}

	// A chosen-only burst: written, not synced.
	if err := s.SetChosen(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 1 {
		t.Fatalf("chosen-only batch forced a sync: Syncs = %d, want 1", got)
	}

	// The next critical batch's fsync covers the chosen record too.
	if err := s.PutAccepted([]wire.Entry{entry(2, b, "b", false)}, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 2 {
		t.Fatalf("Syncs after second critical batch = %d, want 2", got)
	}
	if st := reopen(t, path); st.Chosen != 1 || st.Accepted.Len() != 2 {
		t.Fatalf("coalesced chosen record lost: %+v", st)
	}
}

// TestSyncPolicyAlways: every flushed batch syncs, critical or not.
func TestSyncPolicyAlways(t *testing.T) {
	s := openTestFile(t, filepath.Join(t.TempDir(), "wal"))
	defer s.Close()
	s.SetPolicy(SyncPolicyAlways, 0)
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	if err := s.PutAccepted([]wire.Entry{entry(1, b, "a", false)}, b); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetChosen(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs; got != 2 {
		t.Fatalf("Syncs = %d, want 2 under SyncPolicyAlways", got)
	}
}

// TestSyncPolicyInterval: syncs are rate-limited to the configured
// interval, independent of record criticality.
func TestSyncPolicyInterval(t *testing.T) {
	s := openTestFile(t, filepath.Join(t.TempDir(), "wal"))
	defer s.Close()
	s.SetPolicy(SyncPolicyInterval, time.Hour)
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	for i := uint64(1); i <= 3; i++ {
		if err := s.PutAccepted([]wire.Entry{entry(i, b, "a", false)}, b); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// The first flush syncs (no sync has ever run); the rest fall within
	// the hour-long interval and are deferred.
	if got := s.Stats().Syncs; got != 1 {
		t.Fatalf("Syncs = %d, want 1 within the interval", got)
	}

	s2 := openTestFile(t, filepath.Join(t.TempDir(), "wal2"))
	defer s2.Close()
	s2.SetPolicy(SyncPolicyInterval, time.Nanosecond)
	s2.SetBuffered(true)
	if err := s2.SetChosen(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Syncs; got != 1 {
		t.Fatalf("Syncs = %d, want 1 once the interval elapsed", got)
	}
}

// TestBatchedFlushPoisonsStore: a Flush that cannot reach the device
// poisons the store — every later mutation fails with the original error,
// the fail-stop contract under group commit.
func TestBatchedFlushPoisonsStore(t *testing.T) {
	s := openTestFile(t, filepath.Join(t.TempDir(), "wal"))
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	if err := s.PutAccepted([]wire.Entry{entry(1, b, "a", false)}, b); err != nil {
		t.Fatal(err)
	}
	s.f.Close() // the device "fails" under the batch
	err := s.Flush()
	if err == nil {
		t.Fatal("Flush over a failed device must error")
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("Flush error should mark the poisoning: %v", err)
	}
	if err2 := s.PutAccepted([]wire.Entry{entry(2, b, "b", false)}, b); err2 == nil {
		t.Fatal("mutations after a failed batch must fail")
	}
	if err3 := s.Flush(); err3 == nil {
		t.Fatal("later flushes must return the sticky poison error")
	}
	if _, err4 := s.Load(); err4 == nil {
		t.Fatal("Load after poisoning must fail")
	}
}

// TestAsyncRewrite: in buffered mode the snapshot rewrite runs off the
// flush path; appends continue during it and the reopened state matches.
func TestAsyncRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestFile(t, path)
	defer s.Close()
	s.rewriteAt = 4 << 10 // tiny threshold so rewrites trigger quickly
	s.SetBuffered(true)

	b := wire.Ballot{Round: 1, Node: 0}
	var chosen uint64
	for i := uint64(1); i <= 400; i++ {
		if err := s.PutAccepted([]wire.Entry{entry(i, b, "abcdefghij", i%7 == 0)}, b); err != nil {
			t.Fatal(err)
		}
		chosen = i
		if err := s.SetChosen(chosen); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Let in-flight background rewrites finish before checking.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Rewrites == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := s.Stats()
	if st.Rewrites == 0 {
		t.Fatal("no background rewrite ran despite tiny threshold")
	}
	if st.RewriteErrs != 0 {
		t.Fatalf("RewriteErrs = %d, want 0", st.RewriteErrs)
	}

	got := reopen(t, path)
	if got.Chosen != chosen {
		t.Fatalf("Chosen after rewrite = %d, want %d", got.Chosen, chosen)
	}
	if got.Accepted.Len() != 400 {
		t.Fatalf("Accepted.Len after rewrite = %d, want 400", got.Accepted.Len())
	}
	for _, inst := range []uint64{1, 200, 400} {
		if e, ok := got.Accepted.Get(inst); !ok || len(e.Prop.Reqs) == 0 {
			t.Fatalf("entry %d lost across rewrite: %+v", inst, e)
		}
	}
}

// TestConcurrentFlushAndStage: staging from one goroutine while another
// flushes must neither lose records nor race (run under -race in CI).
func TestConcurrentFlushAndStage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestFile(t, path)
	s.SetBuffered(true)
	s.rewriteAt = 8 << 10

	const n = 500
	b := wire.Ballot{Round: 1, Node: 0}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := uint64(1); i <= n; i++ {
		if err := s.PutAccepted([]wire.Entry{entry(i, b, "op", false)}, b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := reopen(t, path)
	if st.Accepted.Len() != n {
		t.Fatalf("Accepted.Len = %d, want %d", st.Accepted.Len(), n)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncPolicyAlways, true},
		{"batch", SyncPolicyBatch, true},
		{"", SyncPolicyBatch, true},
		{"interval", SyncPolicyInterval, true},
		{"bogus", 0, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("String() round trip: %q != %q", got.String(), tc.in)
		}
	}
}

// TestSnapshotBuffersNotRetained: a service snapshot record grows the
// record encoder and the staging buffer to its size; neither may stay
// that large once ordinary records follow, or every replica pins a
// snapshot's worth of memory for good. The snapshot itself must survive
// a log rewrite, which frames it without a second copy.
func TestSnapshotBuffersNotRetained(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	s := openTestFile(t, path)
	defer s.Close()
	s.SetBuffered(true)

	snap := make([]byte, 4*maxRetainedBuf)
	for i := range snap {
		snap[i] = byte(i)
	}
	if err := s.SaveSnapshot(snap, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	b := wire.Ballot{Round: 1, Node: 0}
	for i := uint64(2); i <= 3; i++ {
		if err := s.PutAccepted([]wire.Entry{entry(i, b, "op", true)}, b); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	spare, scratch := cap(s.spare), cap(s.scratch.Bytes())
	s.mu.Unlock()
	if spare > maxRetainedBuf || scratch > maxRetainedBuf {
		t.Fatalf("after a %d-byte snapshot record: spare cap %d, encoder cap %d, want <= %d",
			len(snap), spare, scratch, maxRetainedBuf)
	}

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := reopen(t, path)
	if got.ServiceSnapAt != 1 || !bytes.Equal(got.ServiceSnap, snap) {
		t.Fatalf("snapshot at %d (%d bytes) after rewrite, want at 1 (%d bytes)",
			got.ServiceSnapAt, len(got.ServiceSnap), len(snap))
	}
	if got.Accepted.Len() != 2 {
		t.Fatalf("Accepted.Len after rewrite = %d, want 2", got.Accepted.Len())
	}
}
