package core_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/cluster"
	"gridrep/internal/core"
	"gridrep/internal/netem"
	"gridrep/internal/service"
	"gridrep/internal/wire"
)

// A demoted leader rolls its speculative executions back by restoring
// its rollback base and replaying the chosen log above it (DESIGN.md
// §10). These tests demote a leader from inside its event loop while
// the condition under test holds, let the cluster finish the workload
// under a new leader, and require the demoted replica's service state
// to end byte-equal to everyone else's.

// demoteWhen polls the current leader's event loop until ready holds,
// then runs act there (act demotes it) and has every other replica
// distrust the old leader, so a different replica leads the next term.
// It returns the demoted replica's ID.
func demoteWhen(t *testing.T, c *cluster.Cluster, ready func(*core.Replica) bool, act func(*core.Replica)) wire.NodeID {
	t.Helper()
	id, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := c.Replica(id)
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		rep.Inspect(func(r *core.Replica) {
			if r.IsActiveLeader() && ready(r) {
				act(r)
				done = true
			}
		})
		if !done && time.Now().After(deadline) {
			t.Fatal("leader never reached the state to demote in")
		}
		time.Sleep(time.Millisecond)
	}
	for _, other := range c.Running() {
		if other == id {
			continue
		}
		o, _ := c.Replica(other)
		o.Inspect(func(r *core.Replica) { r.Elector().Suspect(id) })
	}
	return id
}

// crashLeader crashes the current leader and returns the replica that
// leads the next term. It returns the crashed replica too.
func crashLeader(t *testing.T, c *cluster.Cluster) (next, crashed wire.NodeID) {
	t.Helper()
	crashed, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(crashed)
	if next, err = c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return next, crashed
}

// wavesInFlight is a demoteWhen readiness test: at least n waves out.
func wavesInFlight(n int64) func(*core.Replica) bool {
	return func(r *core.Replica) bool { return r.Stats().WavesInFlight >= n }
}

// runOps issues writers*each copies of op from concurrent clients and
// fails the test on any error.
func runOps(t *testing.T, c *cluster.Cluster, writers, each int, op []byte) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		cli, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cli.Close()
			for i := 0; i < each; i++ {
				if _, err := cli.Write(op); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkSameState waits for every running replica to apply the whole
// chosen log and requires their service snapshots to be byte-equal.
func checkSameState(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	waitConverged(t, c)
	snaps := snapshotAll(t, c)
	for i, s := range snaps {
		if !bytes.Equal(s, snaps[0]) {
			t.Fatalf("replica #%d's state differs from replica #0's", i)
		}
	}
}

// brokerFactory returns Broker replicas with distinct RNG seeds, so the
// replicas would pick differently if any of them re-executed a request.
func brokerFactory() service.Factory {
	seed := int64(0)
	return func() service.Service {
		seed++
		return service.NewBroker(seed)
	}
}

// brokerUsed sums the allocated slots in a BrokerList reply.
func brokerUsed(t *testing.T, list []byte) int {
	t.Helper()
	used := 0
	for _, line := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("broker list line %q", line)
		}
		n, err := strconv.Atoi(strings.SplitN(fields[1], "/", 2)[0])
		if err != nil {
			t.Fatalf("broker list line %q: %v", line, err)
		}
		used += n
	}
	return used
}

// registerBroker adds three resources big enough never to fill.
func registerBroker(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := cli.Write(service.BrokerRegister(name, 1<<30)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkBrokerUsed requires exactly want allocated slots: every acked
// request applied once, no rolled-back one left behind.
func checkBrokerUsed(t *testing.T, c *cluster.Cluster, want int) {
	t.Helper()
	cli, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Read(service.BrokerList())
	if err != nil {
		t.Fatal(err)
	}
	if got := brokerUsed(t, res); got != want {
		t.Fatalf("broker has %d slots allocated, want %d:\n%s", got, want, res)
	}
}

// TestRollbackMatchesPeersAcrossModes demotes a leader with executed
// waves in flight in each state mode, at depth 1 and depth 4. Full and
// Delta run the KV counter; Replay runs the Broker, whose randomized
// choices the demoted leader must discard rather than keep.
func TestRollbackMatchesPeersAcrossModes(t *testing.T) {
	cases := []struct {
		name    string
		mode    core.StateMode
		factory service.Factory
	}{
		{"full", core.StateModeFull, service.KVFactory},
		{"delta", core.StateModeDelta, service.KVFactory},
		{"replay", core.StateModeReplay, brokerFactory()},
	}
	for _, tc := range cases {
		for _, depth := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/depth%d", tc.name, depth), func(t *testing.T) {
				c := newCluster(t, cluster.Config{
					Service:       tc.factory,
					StateMode:     tc.mode,
					Profile:       netem.WAN(0),
					PipelineDepth: depth,
					NoBatch:       true,
				})
				op := service.KVAdd("ctr", 1)
				if tc.mode == core.StateModeReplay {
					registerBroker(t, c)
					op = service.BrokerRequest(1)
				}
				const writers, each = 4, 6
				done := make(chan struct{})
				go func() {
					defer close(done)
					runOps(t, c, writers, each, op)
				}()
				id := demoteWhen(t, c, wavesInFlight(int64(min(depth, 2))), (*core.Replica).DemoteNow)
				<-done

				if tc.mode == core.StateModeReplay {
					checkSameState(t, c)
					checkBrokerUsed(t, c, writers*each)
				} else {
					checkCounter(t, c, writers*each)
				}
				rep, _ := c.Replica(id)
				if st := rep.Stats(); st.SpecRollbacks == 0 {
					t.Fatalf("demoted leader %v rolled nothing back (waves rolled back: %d)", id, st.WavesRolledBack)
				}
			})
		}
	}
}

// TestRollbackExclusiveTxn covers a Serialize-wrapped service (the
// Broker) with an exclusive transaction open at the demotion: still
// executing ops, whose undo is the adapter's own abort, and committing
// in a wave in flight, whose effects only the rollback base excludes.
// The transaction is the first work of a new leader's term, so the base
// it rolls back to is the one its Begin took.
func TestRollbackExclusiveTxn(t *testing.T) {
	for _, committing := range []bool{false, true} {
		name := "open"
		if committing {
			name = "committing"
		}
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, cluster.Config{
				Service: brokerFactory(),
				Profile: netem.WAN(0),
			})
			registerBroker(t, c)
			leader, _ := crashLeader(t, c)
			rep, _ := c.Replica(leader)
			rep.Inspect(func(r *core.Replica) {
				if _, ok := r.RollbackBase(); ok {
					t.Error("a replica that never executed a wave holds a rollback base")
				}
			})
			cli, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			tx := cli.Begin()
			if _, err := tx.Do(service.BrokerRequest(2)); err != nil {
				t.Fatal(err)
			}
			ready := func(r *core.Replica) bool { return r.OpenTxns() == 1 }
			commitErr := make(chan error, 1)
			if committing {
				go func() { commitErr <- tx.Commit() }()
				ready = wavesInFlight(1)
			}
			id := demoteWhen(t, c, ready, (*core.Replica).DemoteNow)
			if !committing {
				commitErr <- tx.Commit()
			}
			err = <-commitErr
			if !committing && err == nil {
				t.Fatal("commit succeeded after the leader that ran the transaction stepped down")
			}

			checkSameState(t, c)
			want := 0
			if err == nil {
				want = 2 // a new leader recovered the commit instance
			}
			checkBrokerUsed(t, c, want)
			if id != leader {
				t.Fatalf("demoted %v, but %v ran the transaction", id, leader)
			}
			if st := rep.Stats(); committing && st.SpecRollbacks == 0 {
				t.Fatal("demotion with the commit wave in flight rolled nothing back")
			}
		})
	}
}

// TestRollbackConfigWaveFirstInTerm demotes a new leader whose only wave
// is a configuration entry, proposed before it ever executed a request:
// no service state is speculative, so the demotion needs no rollback
// base and must not take one.
func TestRollbackConfigWaveFirstInTerm(t *testing.T) {
	c := newCluster(t, cluster.Config{
		Service: service.KVFactory,
		Profile: netem.WAN(0),
	})
	runWriters(t, c, 2, 3)
	id, old := crashLeader(t, c)
	rep, _ := c.Replica(id)
	rep.Inspect(func(r *core.Replica) {
		if _, ok := r.RollbackBase(); ok {
			t.Error("a replica that never executed a wave holds a rollback base")
		}
	})
	if err := rep.Reconfigure(wire.ConfigRemove, old, ""); err != nil {
		t.Fatal(err)
	}
	demoteWhen(t, c, wavesInFlight(1), func(r *core.Replica) {
		r.DemoteNow()
		if _, ok := r.RollbackBase(); ok {
			t.Error("demotion over a configuration wave took a rollback base")
		}
	})
	runWriters(t, c, 2, 3)
	checkCounter(t, c, 12)
}

// TestRollbackAfterCompactionUnderLoad keeps a depth-4 Delta pipeline
// full across a log compaction, then demotes the leader. Compaction must
// have waited for the pipeline to drain and the rollback base must have
// been refreshed there, so the rollback replays all the way to the
// commit index. A replay stopped at a stripped delta would leave the
// demoted leader the only replica that knows the commit index and
// unable to serve it — the cluster would wedge.
func TestRollbackAfterCompactionUnderLoad(t *testing.T) {
	c := newCluster(t, cluster.Config{
		Service:       service.KVFactory,
		StateMode:     core.StateModeDelta,
		PipelineDepth: 4,
		NoBatch:       true,
	})
	const writers, each = 16, core.CompactEvery / 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		runWriters(t, c, writers, each)
	}()
	ready := func(r *core.Replica) bool {
		return r.LastCompact() >= core.CompactEvery && r.Stats().WavesInFlight >= 1
	}
	var baseAt, compactAt, applied, chosen uint64
	id := demoteWhen(t, c, ready, func(r *core.Replica) {
		baseAt, _ = r.RollbackBase()
		compactAt = r.LastCompact()
		r.DemoteNow()
		applied, chosen = r.Applied(), r.Chosen()
	})
	if baseAt < compactAt {
		t.Fatalf("rollback base at %d predates the compaction at %d", baseAt, compactAt)
	}
	if applied != chosen {
		t.Fatalf("rollback replayed to %d of chosen %d", applied, chosen)
	}
	<-done
	checkCounter(t, c, writers*each)
	rep, _ := c.Replica(id)
	if st := rep.Stats(); st.SpecRollbacks == 0 {
		t.Fatal("demotion mid-pipeline rolled nothing back")
	}
}

// snapCounter is a KV that counts its Snapshot calls.
type snapCounter struct {
	*service.KV
	snapshots int
}

func (s *snapCounter) Snapshot() []byte {
	s.snapshots++
	return s.KV.Snapshot()
}

// TestRollbackBaseSnapshotFence pins the cost the rollback base saves:
// a Delta-mode leader at depth 1 takes its base once, and again only
// after a compaction strips the log above it — at most 1+N/compactEvery
// snapshots for N writes, not one per wave.
func TestRollbackBaseSnapshotFence(t *testing.T) {
	c := newCluster(t, cluster.Config{
		Service:   func() service.Service { return &snapCounter{KV: service.NewKV()} },
		StateMode: core.StateModeDelta,
	})
	const writers, each = 8, (2*core.CompactEvery + 100) / 8
	runWriters(t, c, writers, each)
	waitConverged(t, c)

	id, _ := c.Leader()
	rep, _ := c.Replica(id)
	var snaps int
	var waves uint64
	rep.Inspect(func(r *core.Replica) {
		snaps = r.Service().(*snapCounter).snapshots
		waves = r.Stats().WavesCommitted
	})
	if limit := 1 + writers*each/core.CompactEvery; snaps > limit {
		t.Fatalf("leader took %d snapshots for %d writes in %d waves, want <= %d", snaps, writers*each, waves, limit)
	}
	checkCounter(t, c, writers*each)
}
