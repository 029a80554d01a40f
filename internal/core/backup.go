package core

import (
	"time"

	"gridrep/internal/wire"
)

// onPrepare answers a phase-1a message. Observing a higher ballot means
// another process is being elected: any local leadership is abandoned
// before voting.
func (r *Replica) onPrepare(from wire.NodeID, m *wire.Prepare) {
	if r.maxSeen.Less(m.Bal) {
		r.maxSeen = m.Bal
	}
	if r.role != RoleBackup && r.bal.Less(m.Bal) {
		r.logf("prepare %v from %v supersedes my %v", m.Bal, from, r.bal)
		r.stepDown()
	}
	p, err := r.acc.OnPrepare(m)
	if err != nil {
		r.fatal("prepare persist: %v", err)
		return
	}
	p.From = r.cfg.ID
	// The promise claims durable acceptor state; it leaves only after
	// the staged record is flushed.
	r.sendDurable(from, p)
}

// onAccept answers a phase-2a message. The accepted entries are persisted
// by the acceptor; their state is applied when the commit index covers
// them (§3.3: replicas keep every request but apply only the latest
// state).
func (r *Replica) onAccept(from wire.NodeID, m *wire.Accept) {
	if r.maxSeen.Less(m.Bal) {
		r.maxSeen = m.Bal
	}
	if r.role != RoleBackup && r.bal.Less(m.Bal) {
		r.logf("accept %v from %v supersedes my %v", m.Bal, from, r.bal)
		r.stepDown()
	}
	acked, err := r.acc.OnAccept(m)
	if err != nil {
		r.fatal("accept persist: %v", err)
		return
	}
	acked.From = r.cfg.ID
	// The phase-2b vote is the message §3.3's durability argument is
	// about: it must not leave before the accepted entries are on disk.
	// Deferring it through the persister overlaps the fsync with the
	// leader-side network round trip instead of serializing them.
	r.sendDurable(from, acked)
	if !acked.OK {
		return
	}
	r.advanceChosen(m.Commit, m.Bal)
}

// onCommitMsg learns that a prefix of instances is chosen.
func (r *Replica) onCommitMsg(m *wire.Commit) {
	if r.role == RoleBackup {
		r.advanceChosen(m.Index, m.Bal)
	}
}

// advanceChosen moves the commit index toward a leader's claim and
// applies the newly chosen entries to the service.
//
// The index only advances over instances whose local entry carries a
// ballot at least claimBal (the claimant's). A pipelining leader lets
// backups hold same-ballot instances out of order, and a leader switch
// can redefine an instance a stale accepted entry still occupies — so an
// entry below the claimed ballot may be a superseded leftover whose value
// was never chosen, and applying it would corrupt the state chain. An
// entry at the claimed ballot was committed by the claimant itself; one
// above it can only exist if a newer leader re-proposed the chosen value
// (P2c), so both are safe. Anything else stops the walk; the remainder of
// the claim becomes a hint the tick loop resolves through catch-up, whose
// Install is authoritative. A backup missing only state (not entries)
// falls behind in applied; the same tick path fetches the suffix.
func (r *Replica) advanceChosen(idx uint64, claimBal wire.Ballot) {
	chosen := r.acc.Chosen()
	if idx <= chosen {
		return
	}
	valid := chosen
	for inst := chosen + 1; inst <= idx; inst++ {
		e, ok := r.acc.Get(inst)
		if !ok || e.Bal.Less(claimBal) {
			break
		}
		valid = inst
	}
	if valid > chosen {
		if err := r.acc.MarkChosen(valid); err != nil {
			r.fatal("mark chosen: %v", err)
			return
		}
		r.applyCommitted(valid)
		r.maybeCompact()
	}
	if valid < idx && idx > r.hintChosen {
		r.hintChosen = idx
	}
}

// applyCommitted folds chosen entries (applied, idx] into the service
// state, dispatching on what each proposal carries:
//
//   - a full snapshot: adopt it (it subsumes everything before it, which
//     is how full-mode waves work — state only on the top instance);
//   - a delta: apply it, which requires contiguity;
//   - captured nondeterminism (Aux): replay the requests
//     deterministically, also contiguous;
//   - nothing (a no-op filler, or a full-mode intermediate): a no-op
//     advances; an intermediate is skipped and covered by the wave top.
func (r *Replica) applyCommitted(idx uint64) {
	for inst := r.applied + 1; inst <= idx; inst++ {
		e, ok := r.acc.Get(inst)
		if !ok {
			return // missing entry: stay behind, catch-up will fix it
		}
		p := &e.Prop
		switch {
		case p.IsConfig():
			// A configuration entry carries no service effect; its
			// commit point is where the participant set and quorum
			// switch (reconfig.go). Contiguity required: membership
			// changes must take effect in decision order.
			if r.applied != inst-1 {
				return
			}
			r.applyConfigEntry(inst, p)
			r.applied = inst
		case p.HasState && p.Kind == wire.StateFull:
			if err := r.svc.Restore(p.State); err != nil {
				r.fatal("state restore at %d: %v", inst, err)
				return
			}
			r.applied = inst
		case p.HasState && p.Kind == wire.StateDelta:
			if r.applied != inst-1 || r.differ == nil {
				return // not contiguous (or wrong mode): need catch-up
			}
			if err := r.differ.ApplyDelta(p.State); err != nil {
				r.fatal("delta apply at %d: %v", inst, err)
				return
			}
			r.applied = inst
		case len(p.Aux) == len(p.Reqs) && len(p.Reqs) > 0:
			if r.applied != inst-1 || r.replayer == nil {
				return
			}
			for i := range p.Reqs {
				if _, err := r.replayer.Replay(p.Reqs[i].Op, p.Aux[i]); err != nil {
					r.fatal("replay at %d: %v", inst, err)
					return
				}
			}
			r.applied = inst
		case len(p.Reqs) == 0:
			// No-op filler from a recovery wave.
			if r.applied == inst-1 {
				r.applied = inst
			}
		default:
			// Full-mode intermediate: no state attached; the wave's
			// top snapshot will cover it.
		}
	}
}

// sendCatchup asks the peers for the chosen suffix this replica lacks.
func (r *Replica) sendCatchup(now time.Time) {
	r.catchupSentAt = now
	r.othersDo(&wire.CatchUpReq{From: r.cfg.ID, HaveChosen: r.applied})
}

// onCatchUpReq serves a lagging replica: the chosen entries above its
// index plus a full snapshot of the responder's current service state.
// Only a replica whose state is clean — fully applied, no speculative
// wave execution, no open exclusive transaction — may answer.
func (r *Replica) onCatchUpReq(m *wire.CatchUpReq) {
	chosen := r.acc.Chosen()
	if chosen <= m.HaveChosen {
		return
	}
	if m.HaveChosen < r.acc.PrunedTo() {
		// The suffix the requester needs starts below our pruned
		// prefix: entry catch-up is impossible, so open a snapshot
		// stream instead. The durable snapshot always covers the
		// pruned prefix (the prune guard), needs no quiescence, and
		// the requester pulls the rest chunk by chunk (reconfig.go).
		r.sendSnapChunk(m.From, 0)
		return
	}
	if r.applied != chosen {
		return
	}
	if len(r.waves) > 0 || (r.exclus && len(r.txns) > 0) {
		return // speculative state; the requester will retry
	}
	r.send(m.From, &wire.CatchUpResp{
		From:    r.cfg.ID,
		Entries: r.acc.EntriesBetween(m.HaveChosen, chosen),
		Chosen:  chosen,
		State:   r.svc.Snapshot(),
		StateAt: chosen,
	})
}

// onCatchUpResp installs chosen entries and the snapshot from a peer.
func (r *Replica) onCatchUpResp(m *wire.CatchUpResp) {
	if m.StateAt != m.Chosen || m.Chosen <= r.applied {
		return
	}
	if err := r.acc.Install(m.Entries, m.Chosen); err != nil {
		r.fatal("catch-up install: %v", err)
		return
	}
	if err := r.svc.Restore(m.State); err != nil {
		r.fatal("catch-up restore: %v", err)
		return
	}
	r.applied = m.Chosen
	r.dropBase() // the installed entries need not hold the payloads above it
	r.logf("caught up to %d", m.Chosen)

	if r.role == RolePreparing && r.awaitCatchup && r.applied >= r.prep.MaxChosen() {
		r.awaitCatchup = false
		r.finishActivation()
	}
}
