package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gridrep/internal/metrics"
	"gridrep/internal/wire"
)

// SyncPolicy selects when a buffered File forces its batch to disk.
type SyncPolicy int

const (
	// SyncPolicyBatch (the default, and the zero value so zero-valued
	// configs inherit it) fsyncs a batch only when it contains a
	// critical record — a promise or an accepted proposal. Chosen and
	// compaction records are written immediately but ride the next
	// critical batch's fsync: losing them in a crash is safe, because the
	// commit index is re-learned from the quorum (heartbeats, the next
	// accept's Commit field, or catch-up).
	SyncPolicyBatch SyncPolicy = iota
	// SyncPolicyAlways fsyncs every flushed batch, even one that only
	// carries chosen-index or compaction records.
	SyncPolicyAlways
	// SyncPolicyInterval fsyncs at most once per configured interval.
	// This bounds — rather than eliminates — the window in which an
	// acknowledged record can be lost, so it weakens the §3.1 recovery
	// guarantee; it models deployments that accept a bounded loss window
	// in exchange for disk-independent throughput.
	SyncPolicyInterval
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncPolicyAlways:
		return "always"
	case SyncPolicyBatch:
		return "batch"
	case SyncPolicyInterval:
		return "interval"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -sync flag values used by replicad and
// benchpaxos.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncPolicyAlways, nil
	case "batch", "":
		return SyncPolicyBatch, nil
	case "interval":
		return SyncPolicyInterval, nil
	default:
		return 0, fmt.Errorf("storage: unknown sync policy %q (want always|batch|interval)", s)
	}
}

// FileStats is a point-in-time snapshot of a File's I/O counters.
type FileStats struct {
	// Records appended (staged or written through).
	Records uint64
	// Batches flushed by group commit and the bytes they carried.
	Batches    uint64
	BatchBytes uint64
	// Syncs actually issued to the device.
	Syncs uint64
	// Rewrites completed and rewrite attempts that failed.
	Rewrites    uint64
	RewriteErrs uint64
}

// File is an append-only write-ahead log implementing Store. Every
// mutation is one CRC-protected record; Load replays the log and stops at
// the first torn or corrupt record (the tail a crash may have produced).
// When the log grows past rewriteAt bytes, it is rewritten as a single
// snapshot record.
//
// File has two write modes. Unbuffered (the default, and the only mode
// before the durability pipeline existed) writes and — when Sync is set —
// fsyncs each record inline, on the caller's goroutine. Buffered mode
// (SetBuffered; see Flusher) stages the records of one event-loop burst
// in memory and makes them durable together at the next Flush: one write
// into a preallocated region, one fdatasync, governed by the SyncPolicy.
// In buffered mode a mutation is NOT durable when the method returns; the
// replica's persister goroutine calls Flush before releasing any protocol
// message that claims the staged state.
type File struct {
	path string

	// Sync controls whether records are fsynced at all. Benchmarks may
	// turn it off to model battery-backed stable storage; correctness
	// tests leave it on.
	Sync bool

	// policy and syncEvery govern buffered flushes only; unbuffered
	// writes always sync per record (when Sync is set).
	policy    SyncPolicy
	syncEvery time.Duration

	rewriteAt int64

	// mu guards the in-memory mirror, the staging buffer, and the poison
	// flag. It is never held across file I/O.
	mu         sync.Mutex
	state      *PersistentState // mirror of the (durable + staged) state
	buffered   bool
	staged     []byte        // framed records awaiting the next Flush
	stagedRecs uint64        // record count in the staged batch
	stagedCrit bool          // staged batch holds a promise/accepted record
	spare      []byte        // previously flushed buffer, recycled
	scratch    *wire.Encoder // reusable record encoder; see encScratch

	// failed poisons the store after the first write or sync failure. A
	// record that may be partially on disk leaves the log in an unknown
	// state; continuing would let the replica promise or accept on
	// storage that cannot honour it. Fail-stop instead: every later call
	// returns the original error, and the replica is expected to crash
	// and recover by replaying the intact prefix.
	failed error

	// wmu serializes file writes, syncs, and the rewrite swap.
	wmu       sync.Mutex
	f         *os.File
	size      int64 // logical end of the log
	allocEnd  int64 // preallocated extent; size <= allocEnd
	dirty     bool  // bytes written since the last sync
	dirtyCrit bool  // ... including a critical record
	lastSync  time.Time
	rewriting bool           // a background rewrite is in flight
	tail      []byte         // records flushed while the rewrite snapshot was built
	rewriteWG sync.WaitGroup // joins the rewrite goroutine on Close

	// I/O instruments (metrics package atomics; FileStats is the shim).
	// The histograms are created in OpenFile so the hot path never has to
	// nil-check; RegisterMetrics publishes everything into a registry.
	records, batches, batchBytes, syncs, rewrites, rewriteErrs metrics.Counter
	fsyncLat                                                   *metrics.Histogram // device sync latency
	batchRecs                                                  *metrics.Histogram // records per flushed group-commit batch
}

// Record types in the WAL.
const (
	recPromise     = 1
	recAccepted    = 2
	recChosen      = 3
	recCompact     = 4
	recSnapshot    = 5
	recServiceSnap = 6 // service-state snapshot + its applied instance
	recMembers     = 7 // membership decided by a committed config entry
	recPrune       = 8 // accepted-log prune watermark
)

// preallocChunk is how far ahead of the logical end the file extent is
// reserved, so batched appends change no allocation metadata and
// fdatasync stays a pure data flush.
const preallocChunk = 1 << 20

// OpenFile opens (or creates) a WAL at path and replays it. Missing
// parent directories are created (concurrency-safe: N groups of one
// process boot their per-group WAL subdirectories in parallel) and, on
// first creation of the file or its directories, fsynced so the
// directory entries are as durable as the records appended behind them.
func OpenFile(path string) (*File, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	if created {
		if err := mkdirAllSynced(filepath.Dir(path)); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if created {
		// A freshly created WAL's directory entry must survive a crash
		// before any record in it can be acknowledged as durable.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	st := &File{
		path:      path,
		f:         f,
		state:     NewPersistentState(),
		scratch:   wire.NewEncoder(nil),
		Sync:      true,
		policy:    SyncPolicyBatch,
		syncEvery: 2 * time.Millisecond,
		rewriteAt: 8 << 20,
		fsyncLat:  metrics.NewHistogram(metrics.UnitNanoseconds),
		batchRecs: metrics.NewHistogram(metrics.UnitCount),
	}
	if err := st.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

var (
	_ Store   = (*File)(nil)
	_ Flusher = (*File)(nil)
)

// SetPolicy selects the buffered-mode sync policy. every is only used by
// SyncPolicyInterval (default 2ms). Call before the store is shared.
func (s *File) SetPolicy(p SyncPolicy, every time.Duration) {
	s.policy = p
	if every > 0 {
		s.syncEvery = every
	}
}

// Policy returns the buffered-mode sync policy.
func (s *File) Policy() SyncPolicy { return s.policy }

// SetBuffered implements Flusher. Turning buffering off with records
// staged is the caller's bug; Flush first.
func (s *File) SetBuffered(on bool) {
	s.mu.Lock()
	s.buffered = on
	s.mu.Unlock()
}

// Staged implements Flusher.
func (s *File) Staged() bool {
	s.mu.Lock()
	n := len(s.staged)
	s.mu.Unlock()
	return n > 0
}

// Stats returns a snapshot of the I/O counters. Kept as a compatibility
// shim over the registered instruments.
func (s *File) Stats() FileStats {
	return FileStats{
		Records:     s.records.Load(),
		Batches:     s.batches.Load(),
		BatchBytes:  s.batchBytes.Load(),
		Syncs:       s.syncs.Load(),
		Rewrites:    s.rewrites.Load(),
		RewriteErrs: s.rewriteErrs.Load(),
	}
}

// FsyncLatency snapshots the device-sync latency histogram.
func (s *File) FsyncLatency() metrics.HistSnapshot { return s.fsyncLat.Snapshot() }

// RegisterMetrics implements metrics.Instrumented: the replica that owns
// this store publishes its instruments into the replica's registry.
func (s *File) RegisterMetrics(reg *metrics.Registry) {
	reg.RegisterCounter("gridrep_wal_records_total",
		"WAL records appended (staged or written through)", &s.records)
	reg.RegisterCounter("gridrep_wal_batches_total",
		"group-commit batches flushed", &s.batches)
	reg.RegisterCounter("gridrep_wal_batch_bytes_total",
		"bytes carried by flushed group-commit batches", &s.batchBytes)
	reg.RegisterCounter("gridrep_wal_syncs_total",
		"syncs issued to the device", &s.syncs)
	reg.RegisterCounter("gridrep_wal_rewrites_total",
		"log rewrites (snapshot compactions) completed", &s.rewrites)
	reg.RegisterCounter("gridrep_wal_rewrite_errors_total",
		"log rewrite attempts that failed", &s.rewriteErrs)
	reg.RegisterHistogram("gridrep_wal_fsync_latency_seconds",
		"device sync latency per fsync/fdatasync", s.fsyncLat)
	reg.RegisterHistogram("gridrep_wal_batch_records",
		"records per flushed group-commit batch", s.batchRecs)
}

// replay loads every intact record; a torn tail (including the zero bytes
// of a preallocated extent) is truncated away.
func (s *File) replay() error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	data, err := io.ReadAll(s.f)
	if err != nil {
		return err
	}
	off := 0
	good := 0
	for off < len(data) {
		n, hdr := binary.Uvarint(data[off:])
		if hdr <= 0 || n > uint64(wire.MaxBlob) || off+hdr+int(n)+4 > len(data) {
			break // torn tail
		}
		body := data[off+hdr : off+hdr+int(n)]
		sum := binary.LittleEndian.Uint32(data[off+hdr+int(n):])
		if crc32.Update(0, crcTable, body) != sum {
			break // corrupt tail
		}
		if err := s.applyRecord(body); err != nil {
			break
		}
		off += hdr + int(n) + 4
		good = off
	}
	if good != len(data) {
		if err := s.f.Truncate(int64(good)); err != nil {
			return err
		}
	}
	s.size = int64(good)
	s.allocEnd = s.size
	_, err = s.f.Seek(int64(good), io.SeekStart)
	return err
}

func (s *File) applyRecord(body []byte) error {
	dec := wire.NewDecoder(body)
	switch typ := dec.Uint8(); typ {
	case recPromise:
		b := dec.Ballot()
		if err := dec.Done(); err != nil {
			return err
		}
		if s.state.Promised.Less(b) {
			s.state.Promised = b
		}
	case recAccepted:
		max := dec.Ballot()
		n := dec.SliceLen()
		if dec.Err() != nil {
			return dec.Err()
		}
		entries := make([]wire.Entry, 0, n)
		for i := 0; i < n; i++ {
			var acc wire.Accept
			if err := acc.UnmarshalFrom(dec); err != nil {
				return err
			}
			entries = append(entries, acc.Entries...)
		}
		if err := dec.Done(); err != nil {
			return err
		}
		s.state.putAccepted(entries, max)
	case recChosen:
		idx := dec.Uvarint()
		if err := dec.Done(); err != nil {
			return err
		}
		if idx > s.state.Chosen {
			s.state.Chosen = idx
		}
	case recCompact:
		from := dec.Uvarint()
		if err := dec.Done(); err != nil {
			return err
		}
		s.compactInMemory(from)
	case recSnapshot:
		st := NewPersistentState()
		st.Promised = dec.Ballot()
		st.MaxAccepted = dec.Ballot()
		st.Chosen = dec.Uvarint()
		n := dec.SliceLen()
		if dec.Err() != nil {
			return dec.Err()
		}
		for i := 0; i < n; i++ {
			var acc wire.Accept
			if err := acc.UnmarshalFrom(dec); err != nil {
				return err
			}
			for _, e := range acc.Entries {
				st.Accepted.Put(e)
			}
		}
		st.PrunedTo = dec.Uvarint()
		snapAt := dec.Uvarint()
		st.ApplySnapshot(dec.Bytes8(), snapAt)
		st.MembersAt = dec.Uvarint()
		if dec.Bool() {
			nm := dec.SliceLen()
			if dec.Err() != nil {
				return dec.Err()
			}
			st.Members = make([]wire.NodeID, nm)
			for i := range st.Members {
				st.Members[i] = dec.NodeID()
			}
		}
		nl := dec.SliceLen()
		if dec.Err() != nil {
			return dec.Err()
		}
		if nl > 0 {
			st.Learners = make([]wire.NodeID, nl)
			for i := range st.Learners {
				st.Learners[i] = dec.NodeID()
			}
		}
		if err := dec.Done(); err != nil {
			return err
		}
		st.Accepted.PruneTo(st.PrunedTo + 1)
		s.state = st
	case recServiceSnap:
		at := dec.Uvarint()
		snap := dec.Bytes8()
		if err := dec.Done(); err != nil {
			return err
		}
		s.state.ApplySnapshot(snap, at)
	case recMembers:
		at := dec.Uvarint()
		nm := dec.SliceLen()
		if dec.Err() != nil {
			return dec.Err()
		}
		members := make([]wire.NodeID, nm)
		for i := range members {
			members[i] = dec.NodeID()
		}
		nl := dec.SliceLen()
		if dec.Err() != nil {
			return dec.Err()
		}
		learners := make([]wire.NodeID, nl)
		for i := range learners {
			learners[i] = dec.NodeID()
		}
		if err := dec.Done(); err != nil {
			return err
		}
		s.state.ApplyMembers(members, learners, at)
	case recPrune:
		keepFrom := dec.Uvarint()
		if err := dec.Done(); err != nil {
			return err
		}
		s.state.Accepted.PruneTo(keepFrom)
		if keepFrom > 0 && keepFrom-1 > s.state.PrunedTo {
			s.state.PrunedTo = keepFrom - 1
		}
	default:
		return fmt.Errorf("storage: unknown record type %d", typ)
	}
	return nil
}

func (s *File) compactInMemory(keepStateFrom uint64) {
	s.state.Accepted.StripStatesBelow(keepStateFrom)
}

// poison records the first write failure and makes it sticky.
func (s *File) poison(err error) error {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = fmt.Errorf("storage: WAL poisoned by failed append: %w", err)
	}
	err = s.failed
	s.mu.Unlock()
	return err
}

// crcTable is the shared IEEE polynomial table. Building it once keeps
// the append and replay hot paths off ChecksumIEEE's per-call lazy-init
// check, and crc32.Update against it streams over each record body in
// place — a large group-committed burst is checksummed as its frames
// are built, never by rescanning a rebuilt buffer.
var crcTable = crc32.MakeTable(crc32.IEEE)

// appendFrame appends one length-prefixed, checksummed record frame to
// dst. The checksum covers exactly the body bytes just appended,
// computed by streaming over them (crc32.Update) with the shared table.
func appendFrame(dst, body []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	dst = append(dst, hdr[:n]...)
	dst = append(dst, body...)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(0, crcTable, body))
	return append(dst, sum[:]...)
}

// writeFrame writes the same frame appendFrame builds to w, in three
// writes instead of one copy, and returns its length.
func writeFrame(w io.Writer, body []byte) (int64, error) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(body)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(0, crcTable, body))
	for _, b := range [][]byte{hdr[:n], body, sum[:]} {
		if _, err := w.Write(b); err != nil {
			return 0, err
		}
	}
	return int64(n + len(body) + len(sum)), nil
}

// maxRetainedBuf bounds the capacity File keeps in its reusable buffers:
// the record encoder and the recycled staging buffer. A group-commit
// batch of ordinary records stays far below it; a buffer that grew past
// it carried a service snapshot, and keeping it would pin a snapshot's
// worth of memory per replica for good.
const maxRetainedBuf = 256 << 10

// encScratch resets and returns the shared record encoder. Mutations all
// run on the replica's event loop, one at a time, and both stage and
// writeRecord copy the encoded bytes out before returning, so one
// buffer serves every record without a per-mutation allocation. An
// encoder that grew past maxRetainedBuf is dropped, not reused.
func (s *File) encScratch() *wire.Encoder {
	if cap(s.scratch.Bytes()) > maxRetainedBuf {
		s.scratch = wire.NewEncoder(nil)
	}
	s.scratch.Reset()
	return s.scratch
}

// stage buffers one record for the next Flush. Caller holds mu.
func (s *File) stage(body []byte, critical bool) {
	s.staged = appendFrame(s.staged, body)
	if critical {
		s.stagedCrit = true
	}
	s.stagedRecs++
	s.records.Add(1)
}

// writeRecord writes one framed record through to the file and — when
// Sync is set — fsyncs it, exactly the pre-group-commit semantics. Any
// failure poisons the store.
func (s *File) writeRecord(body []byte) error {
	rec := appendFrame(nil, body)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return s.poison(err)
	}
	s.size += int64(len(rec))
	if s.rewriting {
		s.tail = append(s.tail, rec...)
	}
	s.records.Add(1)
	if s.Sync {
		start := time.Now()
		if err := s.f.Sync(); err != nil {
			return s.poison(err)
		}
		s.fsyncLat.Since(start)
		s.syncs.Add(1)
		s.lastSync = time.Now()
	} else {
		s.dirty = true
	}
	return nil
}

// Flush implements Flusher: it writes every staged record as one batch
// into the preallocated extent and syncs it per the policy. A failed
// write or sync poisons the store — the whole batch is in an unknown
// state on disk, so the fail-stop contract is per batch. Safe to call
// concurrently with staging; records staged after Flush reads the buffer
// wait for the next Flush.
func (s *File) Flush() error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	batch := s.staged
	crit := s.stagedCrit
	recs := s.stagedRecs
	s.staged = s.spare[:0]
	s.spare = nil
	s.stagedCrit = false
	s.stagedRecs = 0
	s.mu.Unlock()

	s.wmu.Lock()
	if len(batch) > 0 {
		if err := s.preallocLocked(s.size + int64(len(batch))); err != nil {
			s.wmu.Unlock()
			return s.poison(err)
		}
		if _, err := s.f.WriteAt(batch, s.size); err != nil {
			s.wmu.Unlock()
			return s.poison(err)
		}
		s.size += int64(len(batch))
		if s.rewriting {
			s.tail = append(s.tail, batch...)
		}
		s.dirty = true
		s.dirtyCrit = s.dirtyCrit || crit
		s.batches.Add(1)
		s.batchBytes.Add(uint64(len(batch)))
		s.batchRecs.Observe(recs)
	}
	if s.shouldSyncLocked() {
		start := time.Now()
		if err := fdatasync(s.f); err != nil {
			s.wmu.Unlock()
			return s.poison(err)
		}
		s.fsyncLat.Since(start)
		s.dirty, s.dirtyCrit = false, false
		s.lastSync = time.Now()
		s.syncs.Add(1)
	}
	s.maybeRewriteLocked()
	s.wmu.Unlock()

	// Recycle the flushed buffer for the next burst, unless a snapshot
	// record grew it far past a normal batch.
	if cap(batch) <= maxRetainedBuf {
		s.mu.Lock()
		if s.spare == nil {
			s.spare = batch[:0]
		}
		s.mu.Unlock()
	}
	return nil
}

// shouldSyncLocked decides whether this flush forces the batch to the
// device. Caller holds wmu.
func (s *File) shouldSyncLocked() bool {
	if !s.Sync || !s.dirty {
		return false
	}
	switch s.policy {
	case SyncPolicyBatch:
		return s.dirtyCrit
	case SyncPolicyInterval:
		return time.Since(s.lastSync) >= s.syncEvery
	default:
		return true
	}
}

// preallocLocked extends the reserved extent ahead of need. Caller holds
// wmu.
func (s *File) preallocLocked(need int64) error {
	if need <= s.allocEnd {
		return nil
	}
	end := need + preallocChunk
	if err := preallocExtend(s.f, s.allocEnd, end-s.allocEnd); err != nil {
		return err
	}
	s.allocEnd = end
	return nil
}

// Load implements Store. In buffered mode the returned state includes
// staged (not yet durable) mutations — the event loop's own view.
func (s *File) Load() (*PersistentState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil, s.failed
	}
	return s.state.Clone(), nil
}

// SetPromised implements Store.
func (s *File) SetPromised(b wire.Ballot) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if !s.state.Promised.Less(b) {
		s.mu.Unlock()
		return nil
	}
	enc := s.encScratch()
	enc.Uint8(recPromise)
	enc.Ballot(b)
	if s.buffered {
		s.stage(enc.Bytes(), true)
		s.state.Promised = b
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.state.Promised = b
	s.mu.Unlock()
	return nil
}

// PutAccepted implements Store. The entries are encoded by reusing the
// Accept message marshaller.
func (s *File) PutAccepted(entries []wire.Entry, maxAccepted wire.Ballot) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	enc := s.encScratch()
	enc.Uint8(recAccepted)
	enc.Ballot(maxAccepted)
	enc.Uvarint(1)
	acc := wire.Accept{Entries: entries}
	acc.MarshalTo(enc)
	if s.buffered {
		s.stage(enc.Bytes(), true)
		s.state.putAccepted(entries, maxAccepted)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.state.putAccepted(entries, maxAccepted)
	s.mu.Unlock()
	return nil
}

// SetChosen implements Store. Chosen records are non-critical: in
// buffered mode they never force a sync of their own (see
// SyncPolicyBatch).
func (s *File) SetChosen(idx uint64) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if idx <= s.state.Chosen {
		s.mu.Unlock()
		return nil
	}
	enc := s.encScratch()
	enc.Uint8(recChosen)
	enc.Uvarint(idx)
	if s.buffered {
		s.stage(enc.Bytes(), false)
		s.state.Chosen = idx
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.state.Chosen = idx
	s.mu.Unlock()
	return nil
}

// Compact implements Store. Past the rewrite threshold the whole state is
// folded into one snapshot record in a fresh file — synchronously in
// unbuffered mode, in the background in buffered mode (triggered by the
// next Flush).
func (s *File) Compact(keepStateFrom uint64) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	enc := s.encScratch()
	enc.Uint8(recCompact)
	enc.Uvarint(keepStateFrom)
	if s.buffered {
		s.stage(enc.Bytes(), false)
		s.compactInMemory(keepStateFrom)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.compactInMemory(keepStateFrom)
	s.mu.Unlock()

	s.wmu.Lock()
	need := s.size >= s.rewriteAt && !s.rewriting
	s.wmu.Unlock()
	if !need {
		return nil
	}
	s.mu.Lock()
	snap := s.state.Clone()
	s.mu.Unlock()
	return s.rewriteTo(snap)
}

// SaveSnapshot implements Store. Snapshot records are critical: pruning
// relies on the snapshot being durable, so it must not linger unsynced
// behind a batch policy.
func (s *File) SaveSnapshot(snap []byte, at uint64) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if at < s.state.ServiceSnapAt {
		s.mu.Unlock()
		return nil
	}
	enc := s.encScratch()
	enc.Uint8(recServiceSnap)
	enc.Uvarint(at)
	enc.Bytes8(snap)
	if s.buffered {
		s.stage(enc.Bytes(), true)
		s.state.ApplySnapshot(snap, at)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.state.ApplySnapshot(snap, at)
	s.mu.Unlock()
	return nil
}

// SetMembers implements Store. Membership records are critical: a
// replica that forgot a committed configuration could count votes
// against the wrong quorum after recovery.
func (s *File) SetMembers(members, learners []wire.NodeID, at uint64) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	enc := s.encScratch()
	enc.Uint8(recMembers)
	enc.Uvarint(at)
	enc.Uvarint(uint64(len(members)))
	for _, id := range members {
		enc.NodeID(id)
	}
	enc.Uvarint(uint64(len(learners)))
	for _, id := range learners {
		enc.NodeID(id)
	}
	if s.buffered {
		s.stage(enc.Bytes(), true)
		s.state.ApplyMembers(members, learners, at)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.state.ApplyMembers(members, learners, at)
	s.mu.Unlock()
	return nil
}

// PruneTo implements Store. The prune point is clamped to the durable
// service snapshot so a crash can always recover: replay finds the
// snapshot record before (or folded together with) the prune record.
// Physical reclamation happens at the next log rewrite, which skips the
// pruned prefix.
func (s *File) PruneTo(keepFrom uint64) error {
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if keepFrom > s.state.ServiceSnapAt+1 {
		keepFrom = s.state.ServiceSnapAt + 1
	}
	if keepFrom == 0 || keepFrom-1 <= s.state.PrunedTo {
		s.mu.Unlock()
		return nil
	}
	enc := s.encScratch()
	enc.Uint8(recPrune)
	enc.Uvarint(keepFrom)
	if s.buffered {
		s.stage(enc.Bytes(), false)
		s.state.Accepted.PruneTo(keepFrom)
		s.state.PrunedTo = keepFrom - 1
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	if err := s.writeRecord(enc.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.state.Accepted.PruneTo(keepFrom)
	s.state.PrunedTo = keepFrom - 1
	s.mu.Unlock()
	return nil
}

// Checkpoint synchronously folds the current state into a single
// snapshot record in a fresh file — the same temp file + rename +
// parent-dir fsync path as background rewrites — physically reclaiming
// pruned and compacted records. Used after a snapshot install and by
// tests that bound WAL disk usage.
func (s *File) Checkpoint() error {
	s.wmu.Lock()
	if s.rewriting {
		// A background rewrite is already folding the log; it will
		// capture the same state via its tail.
		s.wmu.Unlock()
		return nil
	}
	s.rewriting = true
	s.tail = s.tail[:0]
	s.wmu.Unlock()
	s.mu.Lock()
	snap := s.state.Clone()
	s.mu.Unlock()
	if err := s.rewriteTo(snap); err != nil {
		s.rewriteErrs.Add(1)
		s.wmu.Lock()
		s.rewriting = false
		s.tail = nil
		s.wmu.Unlock()
		os.Remove(s.path + ".tmp")
		return err
	}
	return nil
}

// maybeRewriteLocked starts a background rewrite once the log passes the
// threshold. Caller holds wmu. The rewriting flag is raised before the
// snapshot is cloned, so every record flushed from here on is captured in
// tail and replayed into the fresh file at swap time; a record may end up
// in both the snapshot and the tail, which is harmless because replaying
// a record is idempotent.
func (s *File) maybeRewriteLocked() {
	if s.rewriting || s.size < s.rewriteAt || !s.buffered {
		return
	}
	s.rewriting = true
	s.tail = s.tail[:0]
	s.rewriteWG.Add(1)
	go func() {
		defer s.rewriteWG.Done()
		s.rewriteAsync()
	}()
}

func (s *File) rewriteAsync() {
	s.mu.Lock()
	snap := s.state.Clone()
	s.mu.Unlock()
	if err := s.rewriteTo(snap); err != nil {
		// The old log is intact and still the live file, so a failed
		// rewrite is not fatal: count it and retry at a later flush.
		s.rewriteErrs.Add(1)
		s.wmu.Lock()
		s.rewriting = false
		s.tail = nil
		s.wmu.Unlock()
		os.Remove(s.path + ".tmp")
	}
}

// rewriteTo writes snap as a single snapshot record into a temp file,
// syncs it, appends the tail of records that raced the snapshot, and
// atomically renames it over the live log. The parent directory is
// fsynced once, after the rename: without that, a crash could lose the
// new file's directory entry — and with it every record flushed after the
// swap — even though the rename "succeeded".
func (s *File) rewriteTo(snap *PersistentState) error {
	enc := wire.NewEncoder(nil)
	enc.Uint8(recSnapshot)
	enc.Ballot(snap.Promised)
	enc.Ballot(snap.MaxAccepted)
	enc.Uvarint(snap.Chosen)
	enc.Uvarint(uint64(snap.Accepted.Len()))
	snap.Accepted.Ascend(0, 0, func(e wire.Entry) bool {
		acc := wire.Accept{Entries: []wire.Entry{e}}
		acc.MarshalTo(enc)
		return true
	})
	enc.Uvarint(snap.PrunedTo)
	enc.Uvarint(snap.ServiceSnapAt)
	enc.Bytes8(snap.ServiceSnap)
	enc.Uvarint(snap.MembersAt)
	enc.Bool(snap.Members != nil)
	if snap.Members != nil {
		enc.Uvarint(uint64(len(snap.Members)))
		for _, id := range snap.Members {
			enc.NodeID(id)
		}
	}
	enc.Uvarint(uint64(len(snap.Learners)))
	for _, id := range snap.Learners {
		enc.NodeID(id)
	}
	body := enc.Bytes()

	tmp := s.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	// The bulk of the snapshot is written and synced outside the write
	// lock; appends to the live log are never blocked behind it. The
	// frame goes out as header, body and checksum, so the body (which
	// holds the service snapshot) is never copied into a second buffer.
	nsize, err := writeFrame(nf, body)
	if err != nil {
		return fail(err)
	}
	if s.Sync {
		if err := nf.Sync(); err != nil {
			return fail(err)
		}
	}

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if len(s.tail) > 0 {
		if _, err := nf.WriteAt(s.tail, nsize); err != nil {
			return fail(err)
		}
		nsize += int64(len(s.tail))
	}
	if s.Sync {
		if err := nf.Sync(); err != nil {
			return fail(err)
		}
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fail(err)
	}
	old := s.f
	s.f, s.size, s.allocEnd = nf, nsize, nsize
	s.tail = nil
	s.rewriting = false
	s.dirty, s.dirtyCrit = false, false
	s.lastSync = time.Now()
	old.Close()
	s.rewrites.Add(1)
	if s.Sync {
		if err := syncDir(filepath.Dir(s.path)); err != nil {
			// The swap is installed in memory but its directory entry may
			// not be durable; acknowledging later records against the new
			// file would be unsafe, so fail-stop.
			return s.poison(err)
		}
	}
	return nil
}

// mkdirAllSynced creates dir and any missing ancestors, then fsyncs
// every directory level that did not exist beforehand (plus the deepest
// pre-existing ancestor, which gained a new entry). MkdirAll tolerates
// losing the create race, so N goroutines may call this concurrently on
// overlapping trees — each still fsyncs the levels it cares about.
func mkdirAllSynced(dir string) error {
	if dir == "" || dir == "." {
		return nil
	}
	// Walk up to the deepest ancestor that already exists.
	missing := []string{}
	anchor := dir
	for {
		if _, err := os.Stat(anchor); err == nil {
			break
		} else if !os.IsNotExist(err) {
			return err
		}
		missing = append(missing, anchor)
		parent := filepath.Dir(anchor)
		if parent == anchor {
			break
		}
		anchor = parent
	}
	if len(missing) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Durable bottom-up: sync each created level, then the pre-existing
	// parent that now holds a new entry.
	for _, d := range missing {
		if err := syncDir(d); err != nil {
			return err
		}
	}
	return syncDir(anchor)
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close implements Store. Staged records that were never flushed are
// dropped — the crash semantics the replica's Stop path relies on;
// callers wanting durability flush first. Written-but-unsynced bytes are
// synced so a graceful close loses nothing.
func (s *File) Close() error {
	// Join any in-flight background rewrite first: it owns file handles
	// and a .tmp path, and must not race the close (or, in tests, the
	// removal of the WAL's directory).
	s.rewriteWG.Wait()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.dirty && s.Sync {
		if err := s.f.Sync(); err == nil {
			s.dirty, s.dirtyCrit = false, false
		}
	}
	if s.size < s.allocEnd {
		// Drop the preallocated zero tail so the file's length is its
		// logical length again.
		if err := s.f.Truncate(s.size); err == nil {
			s.allocEnd = s.size
		}
	}
	return s.f.Close()
}
