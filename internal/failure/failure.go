// Package failure injects faults into a running deployment from one
// seeded plan: crash/restart of replicas, forced leader switches (§3.6)
// and client message-loss bursts on an in-process cluster, and link
// severs and blackholes on a TCP link grid. Tests use it to verify that
// safety holds under churn and to measure the §3.6 claim that X-Paxos
// and T-Paxos are more sensitive to leader switches than the basic
// protocol.
package failure

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gridrep/internal/wire"
)

// Fault identifies one kind of injected fault.
type Fault int

const (
	// LeaderSwitch forces the Ω modules to abandon the current leader.
	LeaderSwitch Fault = iota
	// CrashBackup crashes a random non-leader replica and restarts it
	// after RecoverAfter.
	CrashBackup
	// CrashLeader crashes the current leader and restarts it after
	// RecoverAfter.
	CrashLeader
	// LossBurst raises client<->replica loss to LossProb for BurstLen.
	LossBurst
	// LinkSever cuts a random link's live connections.
	LinkSever
	// LinkBlackhole blackholes a random link for BlackholeFor.
	LinkBlackhole
)

// faults lists every Fault in the fixed order the weighted pick walks,
// so a seed always maps to the same schedule.
var faults = []Fault{LeaderSwitch, CrashBackup, CrashLeader, LossBurst, LinkSever, LinkBlackhole}

func (f Fault) String() string {
	return [...]string{"leader switch", "crash backup", "crash leader", "loss burst", "link sever", "link blackhole"}[f]
}

func (f Fault) onLinks() bool { return f == LinkSever || f == LinkBlackhole }

// NodeTarget is a deployment whose replicas can be deposed, crashed and
// restarted, and whose client traffic can be made lossy.
// *cluster.Cluster implements it.
type NodeTarget interface {
	Leader() (wire.NodeID, bool)
	Running() []wire.NodeID
	Crash(id wire.NodeID)
	Restart(id wire.NodeID) error
	SuspectLeader()
	// SetClientLoss sets the drop probability of client<->replica
	// messages in both directions.
	SetClientLoss(p float64)
}

// LinkTarget is a deployment whose individual directed links can be
// failed at runtime. *chaos.Grid implements it for real TCP sockets.
type LinkTarget interface {
	// Links lists the directed links currently under control.
	Links() [][2]wire.NodeID
	// Sever cuts the live connections of one link; a self-healing
	// transport is expected to reconnect through it.
	Sever(from, to wire.NodeID)
	// SetBlackhole makes one link silently swallow bytes while on.
	SetBlackhole(from, to wire.NodeID, on bool)
}

// Plan schedules background fault injection.
type Plan struct {
	// Every is the injection period.
	Every time.Duration
	// Weights gives the relative probability of each Fault; a zero
	// weight disables it.
	Weights map[Fault]int
	// RecoverAfter delays the restart of a crashed replica (default
	// Every/2).
	RecoverAfter time.Duration
	// LossProb (default 0.2) and BurstLen (default Every/4)
	// parameterize LossBurst.
	LossProb float64
	BurstLen time.Duration
	// BlackholeFor bounds how long a blackholed link stays dark
	// (default 2×Every).
	BlackholeFor time.Duration
}

// Report tallies what an injector did.
type Report struct {
	Switches   int
	Crashes    int
	Restarts   int
	LossBursts int
	Severs     int
	Blackholes int
}

// Injector drives faults against one target. Node faults need a target
// that implements NodeTarget, link faults one that implements
// LinkTarget; Start refuses a plan the target cannot apply.
type Injector struct {
	nodes NodeTarget
	links LinkTarget
	rng   *rand.Rand

	mu      sync.Mutex
	rep     Report
	stop    chan struct{}
	done    chan struct{}
	closed  bool
	started bool
}

// New returns an injector for target, which must implement NodeTarget,
// LinkTarget or both; it panics on a target that implements neither.
// The seed fixes the fault schedule.
func New(target any, seed int64) *Injector {
	i := &Injector{
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	i.nodes, _ = target.(NodeTarget)
	i.links, _ = target.(LinkTarget)
	if i.nodes == nil && i.links == nil {
		panic(fmt.Sprintf("failure: %T implements neither NodeTarget nor LinkTarget", target))
	}
	return i
}

// node returns the target's node capability; it panics, naming the
// fault, when the target has none.
func (i *Injector) node(f Fault) NodeTarget {
	if i.nodes == nil {
		panic(fmt.Sprintf("failure: %v needs a NodeTarget", f))
	}
	return i.nodes
}

// link returns the target's link capability; it panics, naming the
// fault, when the target has none.
func (i *Injector) link(f Fault) LinkTarget {
	if i.links == nil {
		panic(fmt.Sprintf("failure: %v needs a LinkTarget", f))
	}
	return i.links
}

// SwitchLeader forces one leader switch and waits until a different
// replica leads (or the timeout passes). It returns the new leader.
// It needs a NodeTarget and panics without one.
func (i *Injector) SwitchLeader(timeout time.Duration) (wire.NodeID, bool) {
	nodes := i.node(LeaderSwitch)
	old, ok := nodes.Leader()
	if !ok {
		return 0, false
	}
	nodes.SuspectLeader()
	i.note(func(r *Report) { r.Switches++ })
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l, ok := nodes.Leader(); ok && l != old {
			return l, true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, false
}

// CrashBackup crashes one random non-leader replica and returns its ID.
// It needs a NodeTarget and panics without one.
func (i *Injector) CrashBackup() (wire.NodeID, bool) {
	nodes := i.node(CrashBackup)
	leader, _ := nodes.Leader()
	var candidates []wire.NodeID
	for _, id := range nodes.Running() {
		if id != leader {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return 0, false
	}
	id := candidates[i.intn(len(candidates))]
	nodes.Crash(id)
	i.note(func(r *Report) { r.Crashes++ })
	return id, true
}

// CrashLeader crashes the current leader and returns its ID. It needs
// a NodeTarget and panics without one.
func (i *Injector) CrashLeader() (wire.NodeID, bool) {
	nodes := i.node(CrashLeader)
	leader, ok := nodes.Leader()
	if !ok {
		return 0, false
	}
	nodes.Crash(leader)
	i.note(func(r *Report) { r.Crashes++ })
	return leader, true
}

// Restart recovers a crashed replica. It needs a NodeTarget and panics
// without one.
func (i *Injector) Restart(id wire.NodeID) error {
	if i.nodes == nil {
		panic("failure: Restart needs a NodeTarget")
	}
	if err := i.nodes.Restart(id); err != nil {
		return err
	}
	i.note(func(r *Report) { r.Restarts++ })
	return nil
}

// LossBurst raises client<->replica loss to p for d, then clears it.
// It needs a NodeTarget and panics without one.
func (i *Injector) LossBurst(p float64, d time.Duration) {
	nodes := i.node(LossBurst)
	nodes.SetClientLoss(p)
	i.note(func(r *Report) { r.LossBursts++ })
	time.AfterFunc(d, func() { nodes.SetClientLoss(0) })
}

// Sever cuts one specific link now. It needs a LinkTarget and panics
// without one.
func (i *Injector) Sever(from, to wire.NodeID) {
	i.link(LinkSever).Sever(from, to)
	i.note(func(r *Report) { r.Severs++ })
}

// Blackhole darkens one specific link for d, then restores it. It needs
// a LinkTarget and panics without one.
func (i *Injector) Blackhole(from, to wire.NodeID, d time.Duration) {
	links := i.link(LinkBlackhole)
	links.SetBlackhole(from, to, true)
	i.note(func(r *Report) { r.Blackholes++ })
	time.AfterFunc(d, func() { links.SetBlackhole(from, to, false) })
}

// randomLink picks one controlled link.
func (i *Injector) randomLink() ([2]wire.NodeID, bool) {
	links := i.links.Links()
	if len(links) == 0 {
		return [2]wire.NodeID{}, false
	}
	return links[i.intn(len(links))], true
}

func (i *Injector) intn(n int) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Intn(n)
}

func (i *Injector) note(f func(*Report)) {
	i.mu.Lock()
	defer i.mu.Unlock()
	f(&i.rep)
}

// Start launches background injection per the plan; call Stop to end
// it. It fails if the plan weights no fault, weights a fault the target
// cannot apply, or the injector was already started.
func (i *Injector) Start(plan Plan) error {
	if plan.Every <= 0 {
		return fmt.Errorf("failure: plan period %v must be positive", plan.Every)
	}
	// deck holds each fault once per unit of weight; a tick draws one
	// card uniformly.
	var deck []Fault
	for _, f := range faults {
		w := plan.Weights[f]
		if w <= 0 {
			continue
		}
		if f.onLinks() && i.links == nil || !f.onLinks() && i.nodes == nil {
			return fmt.Errorf("failure: target cannot apply %v", f)
		}
		for ; w > 0; w-- {
			deck = append(deck, f)
		}
	}
	if len(deck) == 0 {
		return fmt.Errorf("failure: plan weights no fault")
	}
	if plan.RecoverAfter == 0 {
		plan.RecoverAfter = plan.Every / 2
	}
	if plan.LossProb == 0 {
		plan.LossProb = 0.2
	}
	if plan.BurstLen == 0 {
		plan.BurstLen = plan.Every / 4
	}
	if plan.BlackholeFor == 0 {
		plan.BlackholeFor = 2 * plan.Every
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.started || i.closed {
		return fmt.Errorf("failure: injector already started or stopped")
	}
	i.started = true
	go i.run(plan, deck)
	return nil
}

func (i *Injector) run(plan Plan, deck []Fault) {
	defer close(i.done)
	ticker := time.NewTicker(plan.Every)
	defer ticker.Stop()
	for {
		select {
		case <-i.stop:
			return
		case <-ticker.C:
		}
		i.apply(deck[i.intn(len(deck))], plan)
	}
}

// apply injects one fault of kind f per the plan.
func (i *Injector) apply(f Fault, plan Plan) {
	switch f {
	case LeaderSwitch:
		i.SwitchLeader(plan.Every)
	case CrashBackup:
		if id, ok := i.CrashBackup(); ok {
			i.scheduleRestart(id, plan.RecoverAfter)
		}
	case CrashLeader:
		if id, ok := i.CrashLeader(); ok {
			i.scheduleRestart(id, plan.RecoverAfter)
		}
	case LossBurst:
		i.LossBurst(plan.LossProb, plan.BurstLen)
	case LinkSever:
		if l, ok := i.randomLink(); ok {
			i.Sever(l[0], l[1])
		}
	case LinkBlackhole:
		if l, ok := i.randomLink(); ok {
			i.Blackhole(l[0], l[1], plan.BlackholeFor)
		}
	}
}

func (i *Injector) scheduleRestart(id wire.NodeID, after time.Duration) {
	t := time.NewTimer(after)
	go func() {
		defer t.Stop()
		select {
		case <-t.C:
			_ = i.Restart(id) // best effort; the replica may be racing a close
		case <-i.stop:
		}
	}()
}

// Stop ends background injection and returns the tally. It is safe to
// call on an injector that was never started, and more than once.
func (i *Injector) Stop() Report {
	i.mu.Lock()
	if !i.closed {
		i.closed = true
		close(i.stop)
	}
	started := i.started
	i.mu.Unlock()
	if started {
		<-i.done
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rep
}
