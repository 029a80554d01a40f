// Package cluster assembles an in-process replicated service deployment:
// n core.Replica instances and any number of clients on one chanx
// network whose latencies come from a netem profile. Integration tests,
// examples, and the benchmark harness all build on it.
//
// With Config.Groups > 1 the cluster becomes a group manager (DESIGN.md
// §13): every node hosts one independent consensus group per group id —
// its own state machine, Ω elector, and WAL — multiplexed over the
// node's single network endpoint, with client requests routed by key
// hash and leadership spread so group g prefers replica g mod N.
package cluster

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"time"

	"gridrep/internal/client"
	"gridrep/internal/core"
	"gridrep/internal/gateway"
	"gridrep/internal/metrics"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/shard"
	"gridrep/internal/storage"
	"gridrep/internal/transport"
	"gridrep/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// N is the number of service replicas (default 3, the paper's
	// configuration: t=1).
	N int
	// Groups is the number of independent consensus groups hosted by
	// every node (default 1 — the single-group deployment, whose boot
	// path, wire format, and metric names are exactly the pre-sharding
	// ones). See DESIGN.md §13.
	Groups int
	// Profile selects the network model (default netem.Loopback()).
	Profile netem.Profile
	// Seed drives the network model's randomness.
	Seed int64
	// Service creates each replica's service instance (default
	// service.NoopFactory). With Groups > 1 every group gets its own
	// instance; the service should implement service.Sharder if routing
	// must follow application keys.
	Service service.Factory
	// Stores optionally provides stable storage per replica (default
	// in-memory); retained across Crash/Restart. With Groups > 1 this
	// map covers group 0 only; other groups use DataDir-derived WALs or
	// in-memory stores (see GroupStore).
	Stores map[wire.NodeID]storage.Store
	// DataDir, when set and no store is supplied for a replica, gives
	// each replica a file-backed WAL at <DataDir>/replica-<id>.wal
	// instead of the in-memory default. Groups beyond 0 nest under
	// <DataDir>/group-<g>/.
	DataDir string
	// SyncPolicy and SyncInterval configure DataDir-created WALs (see
	// storage.SyncPolicy; interval only applies to
	// storage.SyncPolicyInterval).
	SyncPolicy   storage.SyncPolicy
	SyncInterval time.Duration

	// HeartbeatInterval, ElectionTimeout, RetryTimeout override the
	// replica timing; zero values derive sensible defaults from the
	// profile's MaxOneWay.
	HeartbeatInterval time.Duration
	ElectionTimeout   time.Duration
	RetryTimeout      time.Duration

	// ClientRetryEvery and ClientDeadline configure clients.
	ClientRetryEvery time.Duration
	ClientDeadline   time.Duration

	// Logger receives replica role transitions (nil = quiet).
	Logger *log.Logger

	// Tracer, if set, observes every delivered message from the moment
	// the network starts (used for space-time diagrams).
	Tracer func(time.Time, *wire.Envelope)

	// PipelineDepth forwards the core speculative-pipelining bound: how
	// many accept waves the leader may keep in flight. Zero adopts the
	// profile's tuning hint when it has one (long-haul profiles ask for
	// a deep pipeline), else the core default 1, the paper's serial
	// protocol.
	PipelineDepth int
	// CommitFlushDelay forwards the core commit-flush window. Zero
	// adopts the profile's tuning hint when it has one (long-haul
	// profiles widen it to amortize commit broadcasts), else the core
	// default.
	CommitFlushDelay time.Duration
	// RTTPlacement forwards the core RTT-aware leader placement knob
	// (DESIGN.md §16): replicas gossip their aggregate peer RTT and Ω
	// moves leadership to the replica closest to the rest of the
	// cluster, regardless of boot order.
	RTTPlacement bool
	// NearReads makes every client stamp its reads with the replica the
	// transport reports the lowest RTT to, which then serves the read
	// from its local state after a voter-quorum confirm round (DESIGN.md
	// §16) — cross-continent clients skip the hop to a far leader.
	NearReads bool
	// WireCompat forwards the core rolling-upgrade knob: replicas emit
	// only pre-§16 wire encodings (no Confirm.MaxAcc stamp, no
	// heartbeat cost gossip), so a mixed-version cluster keeps
	// decoding every message. Overrides RTTPlacement; near reads fall
	// back to the leader path while set.
	WireCompat bool
	// NoBatch forwards the core ablation knob: one request per accept
	// wave.
	NoBatch bool
	// StateMode forwards the §3.3 state-transfer mode to every replica.
	StateMode core.StateMode
	// ReadConcurrency forwards the core parallel-read worker count
	// (DESIGN.md §14): 0 sizes the pool to GOMAXPROCS (disabled on one
	// processor), negative disables it, positive forces that many
	// workers even on a single processor (tests use this).
	ReadConcurrency int
	// SnapshotEvery and PruneKeep forward the core snapshot/prune
	// cadence (reconfiguration tests shrink them to exercise snapshot
	// catch-up quickly).
	SnapshotEvery uint64
	PruneKeep     uint64
	// Gateway, when non-nil, wraps every node's endpoint in the
	// client-facing edge (DESIGN.md §15): admission control, weighted
	// fair queueing, typed overload sheds, per-session dedup. Nil keeps
	// the exact pre-gateway assembly.
	Gateway *gateway.Config
}

func (c *Config) fillDefaults() {
	if c.N == 0 {
		c.N = 3
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.Profile.Configure == nil {
		c.Profile = netem.Loopback()
	}
	if c.Service == nil {
		c.Service = service.NoopFactory
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 25 * time.Millisecond
		if hb := 2 * c.Profile.MaxOneWay; hb > c.HeartbeatInterval {
			c.HeartbeatInterval = hb
		}
	}
	if c.ElectionTimeout == 0 {
		c.ElectionTimeout = 8 * c.HeartbeatInterval
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 4 * c.HeartbeatInterval
		if rt := 6 * c.Profile.MaxOneWay; rt > c.RetryTimeout {
			c.RetryTimeout = rt
		}
	}
	if c.PipelineDepth == 0 && c.Profile.PipelineDepth > 0 {
		c.PipelineDepth = c.Profile.PipelineDepth
	}
	if c.CommitFlushDelay == 0 {
		c.CommitFlushDelay = c.Profile.CommitFlushDelay
	}
	if c.Stores == nil {
		c.Stores = make(map[wire.NodeID]storage.Store)
	}
}

// gsKey identifies one (node, group) replica slot.
type gsKey struct {
	id wire.NodeID
	g  int
}

// Cluster is a running deployment. All methods are safe for concurrent
// use; the exported Replicas map must only be read directly when no
// failure injection runs concurrently.
type Cluster struct {
	cfg      Config
	Net      *transport.Network
	Replicas map[wire.NodeID]*core.Replica // group 0 — the pre-sharding view
	ids      []wire.NodeID

	mu      sync.Mutex
	nextCli uint32
	joiners map[wire.NodeID]bool                // replicas added via AddReplica
	greps   map[gsKey]*core.Replica             // groups beyond 0
	gstores map[gsKey]storage.Store             // groups beyond 0
	muxes   map[wire.NodeID]*transport.GroupMux // sharded nodes only
	regs    map[wire.NodeID]*metrics.Registry   // shared per-node registry (sharded)
	gws     map[wire.NodeID]*gateway.Gateway    // per-node edge (Config.Gateway set)
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	cfg.fillDefaults()
	net := transport.NewNetwork(cfg.Profile.NewModel(cfg.Seed))
	net.SetTracer(cfg.Tracer)
	c := &Cluster{
		cfg:      cfg,
		Net:      net,
		Replicas: make(map[wire.NodeID]*core.Replica),
		joiners:  make(map[wire.NodeID]bool),
		greps:    make(map[gsKey]*core.Replica),
		gstores:  make(map[gsKey]storage.Store),
		muxes:    make(map[wire.NodeID]*transport.GroupMux),
		regs:     make(map[wire.NodeID]*metrics.Registry),
		gws:      make(map[wire.NodeID]*gateway.Gateway),
	}
	for i := 0; i < cfg.N; i++ {
		c.ids = append(c.ids, wire.NodeID(i))
	}
	for _, id := range c.ids {
		if err := c.startReplica(id); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// Groups returns the per-node consensus group count.
func (c *Cluster) Groups() int { return c.cfg.Groups }

// store resolves (creating if necessary) the stable storage for one
// (node, group) slot. Caller holds c.mu.
func (c *Cluster) store(id wire.NodeID, g int) (storage.Store, error) {
	if g == 0 {
		st, ok := c.cfg.Stores[id]
		if !ok {
			var err error
			if st, err = c.newStore(id, g); err != nil {
				return nil, err
			}
			c.cfg.Stores[id] = st
		}
		return st, nil
	}
	k := gsKey{id, g}
	st, ok := c.gstores[k]
	if !ok {
		var err error
		if st, err = c.newStore(id, g); err != nil {
			return nil, err
		}
		c.gstores[k] = st
	}
	return st, nil
}

func (c *Cluster) newStore(id wire.NodeID, g int) (storage.Store, error) {
	if c.cfg.DataDir == "" {
		return storage.NewMem(), nil
	}
	path := GroupWALPath(c.cfg.DataDir, g, id)
	fs, err := storage.OpenFile(path)
	if err != nil {
		return nil, err
	}
	fs.SetPolicy(c.cfg.SyncPolicy, c.cfg.SyncInterval)
	return fs, nil
}

// GroupWALPath is the WAL layout shared by the in-process cluster and
// the TCP server: group 0 keeps the pre-sharding path (a `-groups 1`
// data dir is byte-for-byte a single-group one), and each further group
// nests in its own subdirectory.
func GroupWALPath(dir string, g int, id wire.NodeID) string {
	if g == 0 {
		return filepath.Join(dir, fmt.Sprintf("replica-%d.wal", id))
	}
	return filepath.Join(dir, fmt.Sprintf("group-%d", g), fmt.Sprintf("replica-%d.wal", id))
}

// startReplica boots every consensus group of one node.
func (c *Cluster) startReplica(id wire.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep, err := c.Net.Endpoint(id)
	if err != nil {
		return err
	}
	// The client-facing edge wraps the endpoint before the group
	// multiplexer, matching the TCP server assembly: endpoint → gateway
	// → (mux) → cores.
	var edge transport.Transport = ep
	if c.cfg.Gateway != nil {
		gw := gateway.Wrap(ep, *c.cfg.Gateway)
		c.gws[id] = gw
		edge = gw
	}
	groups := c.cfg.Groups
	var trFor func(g int) transport.Transport
	var regFor func(g int) *metrics.Registry
	if groups == 1 {
		// Single-group: the endpoint goes straight into the core — no
		// multiplexer, no shared registry. This is the exact pre-sharding
		// assembly, byte-for-byte on the wire and name-for-name in
		// metrics.
		trFor = func(int) transport.Transport { return edge }
		regFor = func(int) *metrics.Registry { return nil }
	} else {
		router := shard.NewRouter(groups, c.cfg.Service())
		mux := transport.NewGroupMux(edge, groups, router.Route)
		c.muxes[id] = mux
		reg := metrics.NewRegistry()
		c.regs[id] = reg
		trFor = func(g int) transport.Transport { return mux.Group(g) }
		regFor = func(g int) *metrics.Registry {
			if g == 0 {
				return reg
			}
			return reg.WithPrefix(fmt.Sprintf("group_%d_", g))
		}
	}
	for g := 0; g < groups; g++ {
		st, err := c.store(id, g)
		if err != nil {
			return err
		}
		var rank func(wire.NodeID) uint64
		if groups > 1 {
			rank = shard.LeaderRank(uint32(g), c.cfg.N)
		}
		rep, err := core.New(core.Config{
			ID:                id,
			Peers:             append([]wire.NodeID{}, c.ids...),
			Service:           c.cfg.Service(),
			Store:             st,
			Transport:         trFor(g),
			HeartbeatInterval: c.cfg.HeartbeatInterval,
			ElectionTimeout:   c.cfg.ElectionTimeout,
			RetryTimeout:      c.cfg.RetryTimeout,
			CommitFlushDelay:  c.cfg.CommitFlushDelay,
			PipelineDepth:     c.cfg.PipelineDepth,
			RTTPlacement:      c.cfg.RTTPlacement,
			WireCompat:        c.cfg.WireCompat,
			NoBatch:           c.cfg.NoBatch,
			StateMode:         c.cfg.StateMode,
			ReadConcurrency:   c.cfg.ReadConcurrency,
			SnapshotEvery:     c.cfg.SnapshotEvery,
			PruneKeep:         c.cfg.PruneKeep,
			Join:              c.joiners[id],
			Metrics:           regFor(g),
			LeaderRank:        rank,
			Logger:            c.cfg.Logger,
		})
		if err != nil {
			return err
		}
		if g == 0 {
			c.Replicas[id] = rep
		} else {
			c.greps[gsKey{id, g}] = rep
		}
		rep.Start()
	}
	return nil
}

// IDs returns the replica IDs.
func (c *Cluster) IDs() []wire.NodeID { return append([]wire.NodeID{}, c.ids...) }

// NewClient attaches a fresh client to the cluster. Clients are
// group-unaware: requests are routed to consensus groups by the
// replicas' multiplexers.
func (c *Cluster) NewClient() (*client.Client, error) {
	c.mu.Lock()
	c.nextCli++
	id := c.nextCli
	c.mu.Unlock()
	ep, err := c.Net.Endpoint(wire.ClientIDBase + wire.NodeID(id))
	if err != nil {
		return nil, err
	}
	return client.New(client.Config{
		Transport:  ep,
		Replicas:   c.IDs(),
		RetryEvery: c.cfg.ClientRetryEvery,
		Deadline:   c.cfg.ClientDeadline,
		NearRead:   c.cfg.NearReads,
	}), nil
}

// NewSessionClient attaches a client for one logical session of a
// tenant. On the in-process network every session gets its own cheap
// endpoint — the session ID packs the tenant into the client NodeID
// exactly as the TCP ClientMux does, so replica-side gateways see the
// same tenant space either way.
func (c *Cluster) NewSessionClient(tenant uint8, n uint32) (*client.Client, error) {
	ep, err := c.Net.Endpoint(gateway.SessionID(tenant, n))
	if err != nil {
		return nil, err
	}
	return client.New(client.Config{
		Transport:  ep,
		Replicas:   c.IDs(),
		RetryEvery: c.cfg.ClientRetryEvery,
		Deadline:   c.cfg.ClientDeadline,
		NearRead:   c.cfg.NearReads,
	}), nil
}

// Gateway returns node id's client-facing edge, when one is running.
func (c *Cluster) Gateway(id wire.NodeID) (*gateway.Gateway, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	gw, ok := c.gws[id]
	return gw, ok
}

// GatewayStats sums the edge counters across every running node — the
// cluster-wide view of admissions, sheds, and dedup hits.
func (c *Cluster) GatewayStats() gateway.Stats {
	c.mu.Lock()
	gws := make([]*gateway.Gateway, 0, len(c.gws))
	for _, gw := range c.gws {
		gws = append(gws, gw)
	}
	c.mu.Unlock()
	var sum gateway.Stats
	for _, gw := range gws {
		st := gw.Stats()
		sum.Admitted += st.Admitted
		sum.Queued += st.Queued
		sum.DedupHits += st.DedupHits
		sum.DupPassthrough += st.DupPassthrough
		sum.ShedThrottle += st.ShedThrottle
		sum.ShedQueueFull += st.ShedQueueFull
		sum.ShedQueueAged += st.ShedQueueAged
		sum.ExpiredInFlight += st.ExpiredInFlight
		sum.InFlight += st.InFlight
		sum.QueueDepth += st.QueueDepth
		sum.Sessions += st.Sessions
	}
	return sum
}

// Replica returns the running group-0 replica with the given ID, if any.
func (c *Cluster) Replica(id wire.NodeID) (*core.Replica, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.Replicas[id]
	return rep, ok
}

// GroupReplica returns node id's replica for consensus group g, if
// running.
func (c *Cluster) GroupReplica(id wire.NodeID, g int) (*core.Replica, bool) {
	if g == 0 {
		return c.Replica(id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rep, ok := c.greps[gsKey{id, g}]
	return rep, ok
}

// GroupStore returns the stable storage assigned to node id's group g.
func (c *Cluster) GroupStore(id wire.NodeID, g int) (storage.Store, bool) {
	if g == 0 {
		return c.Store(id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.gstores[gsKey{id, g}]
	return st, ok
}

// NodeMetrics returns the node's process-wide registry when sharded
// (group 0 unprefixed, group g prefixed group_<g>_), or the group-0
// replica's own registry otherwise.
func (c *Cluster) NodeMetrics(id wire.NodeID) (*metrics.Registry, bool) {
	c.mu.Lock()
	if reg, ok := c.regs[id]; ok {
		c.mu.Unlock()
		return reg, true
	}
	c.mu.Unlock()
	rep, ok := c.Replica(id)
	if !ok {
		return nil, false
	}
	return rep.Metrics(), true
}

// GroupHealths reports every group's protocol position on one node, in
// group order — the in-process twin of the TCP server's /healthz array.
func (c *Cluster) GroupHealths(id wire.NodeID) []core.Health {
	out := make([]core.Health, 0, c.cfg.Groups)
	for g := 0; g < c.cfg.Groups; g++ {
		if rep, ok := c.GroupReplica(id, g); ok {
			out = append(out, rep.Health())
		}
	}
	return out
}

// Running returns the IDs of currently running replicas.
func (c *Cluster) Running() []wire.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []wire.NodeID
	for _, id := range c.ids {
		if _, ok := c.Replicas[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Leader returns the currently active leader of group 0, if any. A
// partitioned stale leader may still believe it leads (harmlessly — it
// can commit nothing); among several claimants the one with the highest
// ballot is the real leader.
func (c *Cluster) Leader() (wire.NodeID, bool) { return c.GroupLeader(0) }

// GroupLeader returns the currently active leader of group g, if any.
func (c *Cluster) GroupLeader(g int) (wire.NodeID, bool) {
	var best wire.NodeID
	var bestBal wire.Ballot
	found := false
	for _, id := range c.Running() {
		rep, ok := c.GroupReplica(id, g)
		if !ok {
			continue
		}
		var active bool
		var bal wire.Ballot
		rep.Inspect(func(r *core.Replica) {
			active = r.IsActiveLeader()
			bal = r.Ballot()
		})
		if active && (!found || bestBal.Less(bal)) {
			best, bestBal, found = id, bal, true
		}
	}
	return best, found
}

// WaitForLeader blocks until some replica is an active leader of
// group 0.
func (c *Cluster) WaitForLeader(timeout time.Duration) (wire.NodeID, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if id, ok := c.Leader(); ok {
			return id, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("cluster: no leader within %v", timeout)
}

// WaitForAllLeaders blocks until every consensus group has an active
// leader, returning the leader of each group in group order.
func (c *Cluster) WaitForAllLeaders(timeout time.Duration) ([]wire.NodeID, error) {
	deadline := time.Now().Add(timeout)
	leaders := make([]wire.NodeID, c.cfg.Groups)
	for g := 0; g < c.cfg.Groups; {
		id, ok := c.GroupLeader(g)
		if ok {
			leaders[g] = id
			g++
			continue
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("cluster: group %d has no leader within %v", g, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return leaders, nil
}

// Crash stops a node — every consensus group it hosts — and drops all
// its traffic, modelling a crash failure (§3.1).
func (c *Cluster) Crash(id wire.NodeID) {
	c.mu.Lock()
	reps := make([]*core.Replica, 0, c.cfg.Groups)
	if rep, ok := c.Replicas[id]; ok {
		reps = append(reps, rep)
		delete(c.Replicas, id)
	}
	for g := 1; g < c.cfg.Groups; g++ {
		if rep, ok := c.greps[gsKey{id, g}]; ok {
			reps = append(reps, rep)
			delete(c.greps, gsKey{id, g})
		}
	}
	mux := c.muxes[id]
	delete(c.muxes, id)
	delete(c.regs, id)
	delete(c.gws, id) // closed via rep.Stop (single-group) or mux.Close
	c.mu.Unlock()
	for _, rep := range reps {
		rep.Stop()
	}
	if mux != nil {
		mux.Close()
	}
	c.Net.Model().SetDown(id, true)
}

// Restart recovers a crashed node from its stable storage (§3.1: faulty
// processes can recover).
func (c *Cluster) Restart(id wire.NodeID) error {
	if _, running := c.Replica(id); running {
		return fmt.Errorf("cluster: replica %v already running", id)
	}
	c.Net.Model().SetDown(id, false)
	return c.startReplica(id)
}

// SetStore replaces a crashed replica's group-0 store before Restart.
// Crash tests use it to model memory loss faithfully: the retained Store
// object still holds staged (never-flushed) records in RAM, so a test
// reopens the WAL file fresh and swaps it in, keeping only what a real
// restart would replay from disk. The replica must not be running.
func (c *Cluster) SetStore(id wire.NodeID, st storage.Store) {
	c.mu.Lock()
	c.cfg.Stores[id] = st
	c.mu.Unlock()
}

// SetGroupStore is SetStore for an arbitrary consensus group.
func (c *Cluster) SetGroupStore(id wire.NodeID, g int, st storage.Store) {
	if g == 0 {
		c.SetStore(id, st)
		return
	}
	c.mu.Lock()
	c.gstores[gsKey{id, g}] = st
	c.mu.Unlock()
}

// Store returns the stable storage currently assigned to a replica
// (group 0).
func (c *Cluster) Store(id wire.NodeID) (storage.Store, bool) {
	c.mu.Lock()
	st, ok := c.cfg.Stores[id]
	c.mu.Unlock()
	return st, ok
}

// AddReplica starts a brand-new node that joins the running cluster
// online: every group boots as a non-voting learner, announces itself
// with JoinReq, catches up (through snapshot streaming when the peers
// have pruned their WALs), and is promoted to voter by a committed
// configuration entry once caught up. Returns once the node is running;
// use WaitForVoter to observe the (group 0) promotion.
func (c *Cluster) AddReplica(id wire.NodeID) error {
	c.mu.Lock()
	for _, cur := range c.ids {
		if cur == id {
			c.mu.Unlock()
			return fmt.Errorf("cluster: replica %v already exists", id)
		}
	}
	c.ids = append(c.ids, id)
	c.joiners[id] = true
	c.mu.Unlock()
	c.Net.Model().SetDown(id, false)
	return c.startReplica(id)
}

// RemoveReplica proposes removing a member through each group's current
// leader. The removal is in force per group once its configuration
// entry commits; the removed replica steps down to an idle non-member
// but keeps running until Crash/Close.
func (c *Cluster) RemoveReplica(id wire.NodeID) error {
	for g := 0; g < c.cfg.Groups; g++ {
		leader, ok := c.GroupLeader(g)
		if !ok {
			return fmt.Errorf("cluster: group %d has no active leader to propose removal", g)
		}
		rep, ok := c.GroupReplica(leader, g)
		if !ok {
			return fmt.Errorf("cluster: group %d leader %v not running", g, leader)
		}
		if err := rep.Reconfigure(wire.ConfigRemove, id, ""); err != nil {
			return err
		}
	}
	return nil
}

// WaitForVoter blocks until the (group 0) leader's committed
// configuration lists id as a voter.
func (c *Cluster) WaitForVoter(id wire.NodeID, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if leader, ok := c.Leader(); ok {
			if rep, ok := c.Replica(leader); ok {
				voter := false
				rep.Inspect(func(r *core.Replica) {
					for _, v := range r.Voters() {
						if v == id {
							voter = true
						}
					}
				})
				if voter {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %v not promoted to voter within %v", id, timeout)
}

// SuspectLeader forces every replica's Ω module to distrust the current
// group-0 leader, triggering an election without a real crash — the
// §3.6 leader switch scenario.
func (c *Cluster) SuspectLeader() { c.SuspectGroupLeader(0) }

// SuspectGroupLeader forces a leader switch in one consensus group.
func (c *Cluster) SuspectGroupLeader(g int) {
	leader, ok := c.GroupLeader(g)
	if !ok {
		return
	}
	for _, id := range c.Running() {
		rep, ok := c.GroupReplica(id, g)
		if !ok {
			continue
		}
		// Suspect(leader) at the leader itself maps to a claim
		// withdrawal, so one loop covers everyone.
		rep.Inspect(func(r *core.Replica) { r.Elector().Suspect(leader) })
	}
}

// SetClientLoss sets the probability that the network drops a message
// between a client and a replica, in both directions; 0 clears it.
func (c *Cluster) SetClientLoss(p float64) {
	m := c.Net.Model()
	m.SetLoss(netem.ClassClient, netem.ClassReplica, p)
	m.SetLoss(netem.ClassReplica, netem.ClassClient, p)
}

// Close stops every replica and the network.
func (c *Cluster) Close() {
	c.mu.Lock()
	reps := make([]*core.Replica, 0, len(c.Replicas)+len(c.greps))
	for _, rep := range c.Replicas {
		reps = append(reps, rep)
	}
	for _, rep := range c.greps {
		reps = append(reps, rep)
	}
	c.Replicas = map[wire.NodeID]*core.Replica{}
	c.greps = map[gsKey]*core.Replica{}
	muxes := make([]*transport.GroupMux, 0, len(c.muxes))
	for _, m := range c.muxes {
		muxes = append(muxes, m)
	}
	c.muxes = map[wire.NodeID]*transport.GroupMux{}
	c.gws = map[wire.NodeID]*gateway.Gateway{} // closed via Stop/mux.Close below
	c.mu.Unlock()
	for _, rep := range reps {
		rep.Stop()
	}
	for _, m := range muxes {
		m.Close()
	}
	c.Net.Close()
}
