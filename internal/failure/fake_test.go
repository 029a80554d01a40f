package failure

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gridrep/internal/wire"
)

// fakeLinks is a link-only target that records link-fault calls.
type fakeLinks struct {
	mu         sync.Mutex
	severs     map[[2]wire.NodeID]int
	blackholes map[[2]wire.NodeID]bool
}

func newFakeLinks() *fakeLinks {
	return &fakeLinks{
		severs:     make(map[[2]wire.NodeID]int),
		blackholes: make(map[[2]wire.NodeID]bool),
	}
}

func (f *fakeLinks) Links() [][2]wire.NodeID {
	return [][2]wire.NodeID{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2}, {2, 0}}
}

func (f *fakeLinks) Sever(from, to wire.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.severs[[2]wire.NodeID{from, to}]++
}

func (f *fakeLinks) SetBlackhole(from, to wire.NodeID, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blackholes[[2]wire.NodeID{from, to}] = on
}

// fakeNodes is a node-only target: three replicas that never really go
// down, so the faults it is dealt depend on the seed alone. It logs
// every fault applied to it (not the recoveries, whose timing varies).
type fakeNodes struct {
	mu     sync.Mutex
	leader wire.NodeID
	log    []string
}

// record appends one applied fault to the log; the caller holds f.mu.
func (f *fakeNodes) record(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...))
}

func (f *fakeNodes) Leader() (wire.NodeID, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leader, true
}

func (f *fakeNodes) Running() []wire.NodeID { return []wire.NodeID{0, 1, 2} }

func (f *fakeNodes) Crash(id wire.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("crash %v", id)
}

func (f *fakeNodes) Restart(wire.NodeID) error { return nil }

func (f *fakeNodes) SuspectLeader() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.leader = (f.leader + 1) % 3
	f.record("switch to %v", f.leader)
}

func (f *fakeNodes) SetClientLoss(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p > 0 {
		f.record("loss %.2f", p)
	}
}

// fakeGrid is a target with both capabilities, logging into one
// sequence.
type fakeGrid struct {
	fakeNodes
	links fakeLinks
}

func (f *fakeGrid) Links() [][2]wire.NodeID { return f.links.Links() }

func (f *fakeGrid) Sever(from, to wire.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.record("sever %v->%v", from, to)
}

func (f *fakeGrid) SetBlackhole(from, to wire.NodeID, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if on {
		f.record("blackhole %v->%v", from, to)
	}
}

func TestLinkFaultsDirect(t *testing.T) {
	fl := newFakeLinks()
	inj := New(fl, 1)
	inj.Sever(0, 1)
	inj.Blackhole(1, 2, 10*time.Millisecond)
	fl.mu.Lock()
	if fl.severs[[2]wire.NodeID{0, 1}] != 1 {
		t.Error("sever not applied")
	}
	if !fl.blackholes[[2]wire.NodeID{1, 2}] {
		t.Error("blackhole not applied")
	}
	fl.mu.Unlock()
	// The blackhole must clear itself.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fl.mu.Lock()
		cleared := !fl.blackholes[[2]wire.NodeID{1, 2}]
		fl.mu.Unlock()
		if cleared {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blackhole never restored")
		}
		time.Sleep(time.Millisecond)
	}
	rep := inj.Stop()
	if rep.Severs != 1 || rep.Blackholes != 1 {
		t.Errorf("report = %+v, want 1 sever, 1 blackhole", rep)
	}
}

func TestLinkFaultsBackground(t *testing.T) {
	fl := newFakeLinks()
	inj := New(fl, 42)
	if err := inj.Start(Plan{
		Every:        5 * time.Millisecond,
		Weights:      map[Fault]int{LinkSever: 3, LinkBlackhole: 1},
		BlackholeFor: 10 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	rep := inj.Stop()
	if rep.Severs+rep.Blackholes == 0 {
		t.Fatalf("background injector did nothing: %+v", rep)
	}
}

// TestLinkInjectorStopWithoutStart stops an injector over a link-only
// target that never started: its report is zero and a second Stop is
// harmless.
func TestLinkInjectorStopWithoutStart(t *testing.T) {
	inj := New(newFakeLinks(), 7)
	if rep := inj.Stop(); rep != (Report{}) {
		t.Errorf("unexpected report %+v", rep)
	}
	inj.Stop()
}

// TestSameSeedSameFaults runs one plan mixing node and link faults
// twice from the same seed: both runs must deal the same faults, to the
// same replicas and links, in the same order.
func TestSameSeedSameFaults(t *testing.T) {
	const want = 40
	run := func() []string {
		g := &fakeGrid{}
		inj := New(g, 7)
		if err := inj.Start(Plan{
			Every: time.Millisecond,
			Weights: map[Fault]int{
				LeaderSwitch:  2,
				CrashBackup:   2,
				CrashLeader:   1,
				LossBurst:     1,
				LinkSever:     2,
				LinkBlackhole: 1,
			},
		}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			g.mu.Lock()
			n := len(g.log)
			g.mu.Unlock()
			if n >= want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d faults applied", n)
			}
			time.Sleep(time.Millisecond)
		}
		inj.Stop()
		g.mu.Lock()
		defer g.mu.Unlock()
		return append([]string(nil), g.log[:want]...)
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	var node, link bool
	for _, f := range a {
		switch strings.Fields(f)[0] {
		case "sever", "blackhole":
			link = true
		default:
			node = true
		}
	}
	if !node || !link {
		t.Fatalf("schedule does not mix node and link faults: %v", a)
	}
}

func TestStartRejectsFaultsTheTargetCannotApply(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target any
		plan   Plan
	}{
		{"link fault on nodes", &fakeNodes{}, Plan{Every: time.Millisecond, Weights: map[Fault]int{LeaderSwitch: 1, LinkSever: 1}}},
		{"node fault on links", newFakeLinks(), Plan{Every: time.Millisecond, Weights: map[Fault]int{LinkSever: 1, CrashBackup: 1}}},
		{"no fault", &fakeGrid{}, Plan{Every: time.Millisecond}},
		{"no period", &fakeGrid{}, Plan{Weights: map[Fault]int{LinkSever: 1}}},
	} {
		inj := New(tc.target, 1)
		if err := inj.Start(tc.plan); err == nil {
			t.Errorf("%s: Start accepted the plan", tc.name)
		}
		if rep := inj.Stop(); rep != (Report{}) {
			t.Errorf("%s: rejected plan still injected: %+v", tc.name, rep)
		}
	}
	inj := New(&fakeGrid{}, 1)
	plan := Plan{Every: time.Hour, Weights: map[Fault]int{LinkSever: 1}}
	if err := inj.Start(plan); err != nil {
		t.Fatal(err)
	}
	if err := inj.Start(plan); err == nil {
		t.Error("second Start accepted")
	}
	inj.Stop()
}

// TestMissingCapabilityPanics: New refuses a target with neither
// capability, and a direct fault the target cannot apply panics naming
// the capability it needs.
func TestMissingCapabilityPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s: recovered %v, want a panic mentioning %q", name, r, want)
			}
		}()
		f()
	}
	mustPanic("New", "neither NodeTarget nor LinkTarget", func() { New(struct{}{}, 1) })
	links := New(newFakeLinks(), 1)
	mustPanic("SwitchLeader", "needs a NodeTarget", func() { links.SwitchLeader(time.Millisecond) })
	mustPanic("CrashBackup", "needs a NodeTarget", func() { links.CrashBackup() })
	mustPanic("CrashLeader", "needs a NodeTarget", func() { links.CrashLeader() })
	mustPanic("Restart", "needs a NodeTarget", func() { links.Restart(0) })
	mustPanic("LossBurst", "needs a NodeTarget", func() { links.LossBurst(0.5, time.Millisecond) })
	nodes := New(&fakeNodes{}, 1)
	mustPanic("Sever", "needs a LinkTarget", func() { nodes.Sever(0, 1) })
	mustPanic("Blackhole", "needs a LinkTarget", func() { nodes.Blackhole(0, 1, time.Millisecond) })
	if rep := links.Stop(); rep != (Report{}) {
		t.Errorf("refused faults were counted: %+v", rep)
	}
}
