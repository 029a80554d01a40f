package core

import "time"

// Hooks for the package's external tests (core_test); compiled into test
// binaries only.

// CompactEvery is how many committed instances pass between log-state
// compactions.
const CompactEvery = compactEvery

// LastCompact returns the commit index of the last log compaction
// (call inside Inspect).
func (r *Replica) LastCompact() uint64 { return r.lastCompact }

// DemoteNow withdraws the replica's leadership claim and steps down at
// once, as a rejected accept wave does (call inside Inspect).
func (r *Replica) DemoteNow() {
	r.elector.Demote()
	r.prepBackoff = time.Now().Add(r.cfg.RetryTimeout)
	r.stepDown()
}

// RollbackBase reports the instance the rollback base reflects, and
// whether there is one (call inside Inspect).
func (r *Replica) RollbackBase() (uint64, bool) { return r.baseAt, r.hasBase }
