package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one traffic mix. Rates and session counts are constants
// chosen once; they are never derived from the code under test.
type workload struct {
	name      string
	keys      int     // preloaded key count
	valueSize int     // bytes per value
	readFrac  float64 // share of X-Paxos gets; the rest are puts
	txn       bool    // every op is a get+put+put T-Paxos transaction
	rate      float64 // fixed open-loop rate, ops/s (txn/s for kv-txn)
	sessions  int     // sessions in the fixed-rate phase; key owners
	peak      int     // sessions in the closed-loop phase (the first peak of them)
	why       string
}

var workloads = []workload{
	{name: "kv-write", keys: 10000, valueSize: 128, rate: 400, sessions: 256, peak: 32,
		why: "the coordinated write path with enough state that per-wave state capture dominates"},
	{name: "kv-read", keys: 1000, valueSize: 128, readFrac: 0.95, rate: 3000, sessions: 256, peak: 32,
		why: "reads skip consensus, so client broadcast, confirms and the read path dominate while WAL and state capture idle"},
	{name: "kv-txn", keys: 1000, valueSize: 128, txn: true, rate: 40, sessions: 256, peak: 16,
		why: "every commit carries a full-state proposal, so storage and transport handle a few huge records"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// class is a request class; the workload's defining class is the one
// its end-to-end latency reports.
type class uint8

const (
	clsPut class = iota
	clsGet
	clsTxn
	numClasses
)

var classNames = [numClasses]string{"write", "read", "txn"}

// arrival is one generated request: a put or get of keys[0], or a
// transaction that gets keys[0] and puts keys[1] and keys[2].
type arrival struct {
	at   time.Duration // due time, from the start of the phase
	cls  class
	keys [3]int32
}

func keyName(k int32) string { return fmt.Sprintf("k%05d", k) }

// value encodes the key, the writing session and its sequence number,
// padded to size; session -1 marks a preloaded value.
func value(k int32, sess, seq, size int) []byte {
	v := make([]byte, size)
	n := copy(v, fmt.Sprintf("%s|%d|%d|", keyName(k), sess, seq))
	for i := n; i < size; i++ {
		v[i] = '.'
	}
	return v
}

// owned lists session s's write keys: sessions own disjoint residues of
// the key space, so the last acknowledged value of every key is known.
func owned(w workload, s int) []int32 {
	var ks []int32
	for k := s; k < w.keys; k += w.sessions {
		ks = append(ks, int32(k))
	}
	return ks
}

// draw picks one request for session s from rng.
func draw(rng *rand.Rand, w workload, own []int32) arrival {
	if w.txn {
		p := rng.Perm(len(own))
		return arrival{cls: clsTxn, keys: [3]int32{own[p[0]], own[p[1]], own[p[2]]}}
	}
	if rng.Float64() < w.readFrac {
		return arrival{cls: clsGet, keys: [3]int32{int32(rng.Intn(w.keys))}}
	}
	return arrival{cls: clsPut, keys: [3]int32{own[rng.Intn(len(own))]}}
}

// planOpen draws Poisson arrivals at w.rate over [0, span) and deals
// them to sessions round-robin, returning each session's arrivals in due
// order. The same seed gives the same plan.
func planOpen(w workload, seed int64, span time.Duration) [][]arrival {
	rng := rand.New(rand.NewSource(seed))
	own := make([][]int32, w.sessions)
	for s := range own {
		own[s] = owned(w, s)
	}
	plan := make([][]arrival, w.sessions)
	var t float64 // seconds
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / w.rate
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return plan
		}
		s := i % w.sessions
		a := draw(rng, w, own[s])
		a.at = at
		plan[s] = append(plan[s], a)
	}
}

// failKind classifies an operation that did not complete.
type failKind uint8

const (
	okay failKind = iota
	failTimeout
	failError
	failAbort
)

// tally accumulates one session's outcomes in a phase; tallies merge
// after the phase, so sessions never share one.
type tally struct {
	attempted, ok                      int
	timeouts, errors, aborts, unserved int
	doneAt                             []time.Duration // closed loop: completions inside the window, from its start
	lat                                [numClasses]samples
	latAt                              [numClasses][]time.Duration // open loop: each lat sample's due time in the window
	queue                              samples                     // due time to call start (open loop)
	txnOp, txnCommit                   samples
	genLateMax                         float64 // ms the generator woke after a due time
	why                                string  // the first failure's message
}

func (t *tally) fail(k failKind) {
	switch k {
	case failTimeout:
		t.timeouts++
	case failError:
		t.errors++
	case failAbort:
		t.aborts++
	}
}

func (t *tally) failed() int { return t.timeouts + t.errors + t.aborts + t.unserved }

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.ok += o.ok
	t.timeouts += o.timeouts
	t.errors += o.errors
	t.aborts += o.aborts
	t.unserved += o.unserved
	t.doneAt = append(t.doneAt, o.doneAt...)
	for c := range t.lat {
		t.lat[c] = append(t.lat[c], o.lat[c]...)
		t.latAt[c] = append(t.latAt[c], o.latAt[c]...)
	}
	t.queue = append(t.queue, o.queue...)
	t.txnOp = append(t.txnOp, o.txnOp...)
	t.txnCommit = append(t.txnCommit, o.txnCommit...)
	if t.why == "" {
		t.why = o.why
	}
	if o.genLateMax > t.genLateMax {
		t.genLateMax = o.genLateMax
	}
}

// execFunc issues one request on session s. Tally t belongs to the
// session for the current phase when the op is measured and is nil
// during warm-up.
type execFunc func(s int, a arrival, t *tally) failKind

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOpen plays a plan: session s issues plan[s] in order, each request
// at its due time or as soon as the session's previous request returns.
// Arrivals due before warm are warm-up and are not counted. The window
// closes at start+warm+window to new arrivals. Arrivals due before then
// are still issued for drain longer, so one queued behind its session's
// in-flight request, or one the generator wakes for a little late, is
// served and timed; those not started by then count as unserved.
// Requests in flight are awaited. Latency runs from the due time, so a
// stall also delays every request queued behind it.
func runOpen(plan [][]arrival, start time.Time, warm, window, drain time.Duration, exec execFunc) []*tally {
	end := start.Add(warm + window + drain)
	out := make([]*tally, len(plan))
	done := make(chan struct{}, len(plan))
	for s := range plan {
		out[s] = &tally{}
		go func(s int, t *tally) {
			defer func() { done <- struct{}{} }()
			for i, a := range plan[s] {
				if a.at >= warm+window {
					return
				}
				measured := a.at >= warm
				due := start.Add(a.at)
				now := time.Now()
				if now.Before(due) {
					time.Sleep(due.Sub(now))
					now = time.Now()
					if late := ms(now.Sub(due)); measured && late > t.genLateMax {
						t.genLateMax = late
					}
				}
				if !now.Before(end) {
					for _, b := range plan[s][i:] {
						if b.at >= warm && b.at < warm+window {
							t.attempted++
							t.unserved++
						}
					}
					return
				}
				if !measured {
					exec(s, a, nil)
					continue
				}
				t.attempted++
				t.queue = append(t.queue, ms(now.Sub(due)))
				if k := exec(s, a, t); k != okay {
					t.fail(k)
					continue
				}
				t.ok++
				t.lat[a.cls] = append(t.lat[a.cls], ms(time.Since(due)))
				t.latAt[a.cls] = append(t.latAt[a.cls], a.at-warm)
			}
		}(s, out[s])
	}
	for range plan {
		<-done
	}
	return out
}

// runClosed runs n sessions back to back for dur: each issues its next
// request as soon as the previous one returns. Requests still in flight
// when the window closes are awaited but not counted as done in it.
func runClosed(n int, dur time.Duration, next func(s int) arrival, exec execFunc) []*tally {
	start := time.Now()
	end := start.Add(dur)
	out := make([]*tally, n)
	done := make(chan struct{}, n)
	for s := 0; s < n; s++ {
		out[s] = &tally{}
		go func(s int, t *tally) {
			defer func() { done <- struct{}{} }()
			for time.Now().Before(end) {
				a := next(s)
				t0 := time.Now()
				t.attempted++
				if k := exec(s, a, t); k != okay {
					t.fail(k)
					continue
				}
				t.ok++
				now := time.Now()
				t.lat[a.cls] = append(t.lat[a.cls], ms(now.Sub(t0)))
				if now.Before(end) {
					t.doneAt = append(t.doneAt, now.Sub(start))
				}
			}
		}(s, out[s])
	}
	for i := 0; i < n; i++ {
		<-done
	}
	return out
}

func mergeTallies(ts []*tally) *tally {
	m := &tally{}
	for _, t := range ts {
		m.merge(t)
	}
	return m
}
