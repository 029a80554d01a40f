package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"gridrep"
)

const (
	replicas       = 3
	clientDeadline = 5 * time.Second
	readyTimeout   = 20 * time.Second
)

// deployment is three replicas on loopback TCP, each with a file-backed
// WAL and default options, and one DialMux connection set whose sessions
// carry all client traffic.
type deployment struct {
	dir     string
	peers   map[gridrep.NodeID]string
	servers []*gridrep.Server
	kvs     []gridrep.Service // the bare KVs, also when wrapped for tracing
	mux     *gridrep.ClientMux
	clients []*gridrep.Client
}

// freePorts reserves n loopback addresses by binding port 0; they are
// released just before the replicas bind them.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// preload fills kv with the workload's key space.
func preload(kv gridrep.Service, w workload) error {
	for k := 0; k < w.keys; k++ {
		if _, err := kv.Execute(gridrep.KVPut(keyName(int32(k)), value(int32(k), -1, 0, w.valueSize))); err != nil {
			return err
		}
	}
	return nil
}

// deploy starts the replicas under a fresh directory in root, waits for
// an active leader, opens the sessions and serves one read through them.
// A non-nil rec wraps each KV in the tracing decorator.
func deploy(root string, w workload, rec *recorder) (*deployment, error) {
	dir, err := os.MkdirTemp(root, "deploy-")
	if err != nil {
		return nil, err
	}
	d := &deployment{dir: dir, peers: map[gridrep.NodeID]string{}}
	addrs, err := freePorts(replicas)
	if err != nil {
		return d, err
	}
	for i, a := range addrs {
		d.peers[gridrep.NodeID(i)] = a
	}
	for i := 0; i < replicas; i++ {
		kv := gridrep.NewKV()
		if err := preload(kv, w); err != nil {
			return d, fmt.Errorf("preload: %w", err)
		}
		d.kvs = append(d.kvs, kv)
		var svc gridrep.Service = kv
		if rec != nil {
			svc = newTracedKV(kv, kv.ReadView, rec, i)
		}
		wal := filepath.Join(dir, fmt.Sprintf("r%d", i), "replica.wal")
		if err := os.MkdirAll(filepath.Dir(wal), 0o755); err != nil {
			return d, err
		}
		s, err := gridrep.ListenAndServe(gridrep.ServerOptions{
			ID: gridrep.NodeID(i), Peers: d.peers, Service: svc, WALPath: wal,
		})
		if err != nil {
			return d, fmt.Errorf("replica %d: %w", i, err)
		}
		d.servers = append(d.servers, s)
	}
	if err := d.waitLeader(); err != nil {
		return d, err
	}
	d.mux, err = gridrep.DialMux(gridrep.DialOptions{Replicas: d.peers, Deadline: clientDeadline})
	if err != nil {
		return d, err
	}
	for n := 0; n < w.sessions; n++ {
		c, err := d.mux.Session(0, uint32(n+1))
		if err != nil {
			return d, fmt.Errorf("session %d: %w", n, err)
		}
		d.clients = append(d.clients, c)
	}
	if _, err := d.clients[0].Read(gridrep.KVGet(keyName(0))); err != nil {
		return d, fmt.Errorf("first read: %w", err)
	}
	return d, nil
}

func (d *deployment) waitLeader() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		for _, s := range d.servers {
			if s.Health().Leading {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("no leader within %v", readyTimeout)
}

// quiesce waits until every replica has applied the same instance.
func (d *deployment) quiesce() error {
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		a := d.servers[0].Health().Applied
		same := true
		for _, s := range d.servers[1:] {
			same = same && s.Health().Applied == a
		}
		if same {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("replicas did not reach equal applied indexes within %v", readyTimeout)
}

// shutdown closes the clients and stops the replicas gracefully.
func (d *deployment) shutdown() error {
	var first error
	if d.mux != nil {
		first = d.mux.Close()
		d.mux = nil
	}
	for _, s := range d.servers {
		if err := s.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	d.servers = nil
	return first
}

// poller samples what only shows while the run is going: leadership
// (for Ω leader changes), transport queue depth, live heap, resident
// memory and the hypervisor's steal. It is
// the one goroutine the benchmark adds beside the sessions.
type poller struct {
	mu         sync.Mutex
	leader     string // ballot of the last leader seen
	changes    int
	queueMax   int
	heapMaxB   float64
	rssMaxB    float64 // over the poller's whole life, not reset
	host       []hostSample
	stop, done chan struct{}
}

// hostSample is one poll's reading of the machine's CPU time, in ticks,
// and of the process's own.
type hostSample struct {
	at           time.Time
	steal, total float64
	cpu          time.Duration // the process's user+sys
}

// polled returns the first and last polls inside [a, b]; ok is false when
// fewer than two polls fall in it.
func polled(hs []hostSample, a, b time.Time) (first, last hostSample, ok bool) {
	i := sort.Search(len(hs), func(k int) bool { return !hs[k].at.Before(a) })
	j := sort.Search(len(hs), func(k int) bool { return hs[k].at.After(b) }) - 1
	if i >= j {
		return hostSample{}, hostSample{}, false
	}
	return hs[i], hs[j], true
}

// stealBetween is the share of the machine's CPU time the hypervisor gave
// to other guests between a and b, from the polls inside that interval;
// 0 when fewer than two polls fall in it.
func stealBetween(hs []hostSample, a, b time.Time) float64 {
	f, l, ok := polled(hs, a, b)
	if !ok {
		return 0
	}
	return ratio{num: l.steal - f.steal, base: l.total - f.total}.value()
}

func startPoller(servers []*gridrep.Server, every time.Duration) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			p.mu.Lock()
			for _, s := range servers {
				if h := s.Health(); h.Leading && h.Ballot != p.leader {
					if p.leader != "" {
						p.changes++
					}
					p.leader = h.Ballot
				}
				p.queueMax = max(p.queueMax, s.TransportStats().QueueDepth)
			}
			metrics.Read(heap)
			p.heapMaxB = max(p.heapMaxB, sampleFloat(heap[0]))
			p.rssMaxB = max(p.rssMaxB, rssBytes())
			steal, total := hostCPU()
			p.host = append(p.host, hostSample{time.Now(), steal, total, processCPU()})
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// reset starts a new phase's maxima; leader changes keep counting.
func (p *poller) reset() {
	p.mu.Lock()
	p.queueMax, p.heapMaxB = 0, 0
	p.mu.Unlock()
}

func (p *poller) read() (changes, queueMax int, heapMaxB, rssMaxB float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.changes, p.queueMax, p.heapMaxB, p.rssMaxB
}

// close stops the poller and returns its host samples.
func (p *poller) close() []hostSample {
	close(p.stop)
	<-p.done
	return p.host
}
