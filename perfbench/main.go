// Command perfbench is gridrep's end-to-end benchmark: clients drive
// three replicas over loopback TCP, each replica writing a file-backed
// WAL, through one workload in a fixed-rate open-loop phase and a
// closed-loop peak phase. It checks the outputs, prints every metric
// with its unit and sample count or base, and ends with one JSON line.
// See NOTES.md for the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"gridrep"
)

const (
	rounds        = 5                      // fresh deployments per run; most metrics are medians over rounds
	setupExtra    = 15                     // set-ups torn down at once, for setup_s only
	warmup        = 500 * time.Millisecond // fixed-rate traffic before the measured window
	openShare     = 0.6                    // share of --seconds in the fixed-rate phase
	drain         = 2 * time.Second        // grace for arrivals due in the fixed-rate phase to start
	windows       = 8                      // slices of each phase; p50_ms, cpu_us_per_op and peak_ops_s use the calm ones
	pollEvery     = 20 * time.Millisecond
	fidelityBound = 0.25 // traced vs untraced storage.kb_per_op and core.reads_parallel_frac
)

func main() {
	processStart := time.Now()
	var (
		name    = flag.String("workload", "", "kv-write, kv-read or kv-txn")
		seed    = flag.Int64("seed", 1, "seed for arrivals, key picks and the read/write draw")
		seconds = flag.Float64("seconds", 10, "measured seconds per run: fixed-rate then closed-loop phase")
		trace   = flag.Int("trace", 0, "1: also run a traced deployment and print the per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for WALs and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload kv-write|kv-read|kv-txn, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := run(w, *seed, *seconds, *trace == 1, *workdir, processStart); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w workload, seed int64, seconds float64, traced bool, workdir string, processStart time.Time) error {
	root := filepath.Join(workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(root)
	syscall.Sync() // as before each round; see runRounds

	// Extra set-ups, torn down at once, make setup_s a median of more
	// samples; the first is timed from process start.
	var setups samples
	for i := 0; i < setupExtra; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		d, err := deploy(root, w, nil)
		if err != nil {
			teardown(d)
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		teardown(d)
	}
	roundSecs := seconds / rounds
	plain, err := runRounds(root, w, seed, roundSecs, nil)
	if err != nil {
		return err
	}
	for _, r := range plain {
		setups = append(setups, r.setupS)
	}

	var out []metric
	if !traced {
		out = endToEnd(w, plain, setups)
	} else {
		debug.FreeOSMemory()
		rec := newRecorder()
		tr, err := runRounds(root, w, seed, roundSecs, rec)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		if out, err = perLayer(plain, tr); err != nil {
			return err
		}
		spans := filepath.Join(workdir, "traces")
		if err := os.MkdirAll(spans, 0o755); err != nil {
			return err
		}
		path := filepath.Join(spans, fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
		if err := rec.writeFile(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %s (%d)\n", path, len(rec.spans))
		self := rec.selfTimes()
		for _, name := range []string{"client.read", "client.write", "client.txn_op", "client.txn_commit"} {
			if st, ok := self[name]; ok {
				fmt.Printf("self time %-18s %10.1f ms of %10.1f ms (not covered by service spans of the same request)\n",
					name, ms(st[1]), ms(st[0]))
			}
		}
	}
	printReport(w, seed, seconds, plain, out)
	return nil
}

// runRounds deploys, measures and tears down a fresh deployment once per
// round, timing each set-up.
func runRounds(root string, w workload, seed int64, secs float64, rec *recorder) ([]*runResult, error) {
	var out []*runResult
	for i := 0; i < rounds; i++ {
		// Start every round alike: write back dirty pages left by
		// earlier rounds or processes (a build, deleted WALs) so their
		// writeback does not land in this round's fsyncs, and collect the
		// last round's heap and return it to the system, so its garbage
		// does not pace this round's GC or count in its resident memory.
		syscall.Sync()
		debug.FreeOSMemory()
		t0 := time.Now()
		d, err := deploy(root, w, rec)
		if err != nil {
			teardown(d)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup := time.Since(t0).Seconds()
		r, err := measure(d, w, seed*rounds+int64(i), secs, rec)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		r.setupS = setup
		out = append(out, r)
	}
	return out, nil
}

// teardown stops a deployment that will not be measured.
func teardown(d *deployment) {
	if d == nil {
		return
	}
	// The deployment is discarded; a failed graceful stop changes nothing.
	_ = d.shutdown()
	os.RemoveAll(d.dir)
}

// runResult is what one deployment's phases and checks produced.
type runResult struct {
	open, closed         *tally
	openSecs, closedSecs float64
	openStart, openEnd   time.Time
	closedStart          time.Time
	host                 []hostSample // the machine's and the process's CPU time, polled through both phases
	proc0, proc1         procSnap
	reg                  regSnap // replicas' registries, change over the fixed-rate phase
	queueMax             int
	heapMaxB             float64
	rssMaxB              float64 // largest resident set sampled in the round
	leaderChanges        int
	walMB                float64
	keysChecked          int
	txnPairs             int
	spans                map[string]*layerStat // fixed-rate phase, traced runs only
	setupS               float64
}

func (r *runResult) attempted() int { return r.open.attempted + r.closed.attempted }
func (r *runResult) failed() int    { return r.open.failed() + r.closed.failed() }

// measure runs both phases on d, checks the outputs and shuts d down.
func measure(d *deployment, w workload, seed int64, seconds float64, rec *recorder) (*runResult, error) {
	lg := &loadGen{w: w, rec: rec, bad: &violations{}}
	for i, c := range d.clients {
		lg.sess = append(lg.sess, newSession(i, c))
	}
	open := time.Duration(seconds * openShare * float64(time.Second))
	closed := time.Duration(seconds*float64(time.Second)) - open
	plan := planOpen(w, seed, warmup+open)
	res := &runResult{openSecs: open.Seconds(), closedSecs: closed.Seconds()}

	p := startPoller(d.servers, pollEvery)
	start := time.Now().Add(20 * time.Millisecond)
	res.openStart = start.Add(warmup)
	boundary := make(chan struct{})
	go func() {
		time.Sleep(time.Until(res.openStart))
		res.reg = snapshotRegistries(d.servers)
		res.proc0 = readProc()
		p.reset()
		close(boundary)
	}()
	res.open = mergeTallies(runOpen(plan, start, warmup, open, drain, lg.exec))
	<-boundary
	res.openEnd = time.Now()
	res.reg = snapshotRegistries(d.servers).minus(res.reg)
	res.proc1 = readProc()
	_, res.queueMax, res.heapMaxB, _ = p.read()

	own := make([][]int32, w.peak)
	rngs := make([]*rand.Rand, w.peak)
	for s := range own {
		own[s] = owned(w, s)
		rngs[s] = rand.New(rand.NewSource(seed*1_000_003 + int64(s) + 1))
	}
	next := func(s int) arrival { return draw(rngs[s], w, own[s]) }
	res.closedStart = time.Now()
	res.closed = mergeTallies(runClosed(w.peak, closed, next, lg.exec))
	res.leaderChanges, _, _, res.rssMaxB = p.read()
	res.host = p.close()
	res.spans = rec.window(res.openStart, res.openEnd)

	// Correctness: read back through the sessions, then compare the
	// replicas' states and check every written key in the final state.
	lg.readBack()
	if err := d.quiesce(); err != nil {
		lg.bad.addf("%v", err)
	}
	if err := d.shutdown(); err != nil {
		lg.bad.addf("shutdown: %v", err)
	}
	snap0 := d.kvs[0].Snapshot()
	for i, kv := range d.kvs[1:] {
		if !bytes.Equal(kv.Snapshot(), snap0) {
			lg.bad.addf("replica %d's state differs from replica 0's after quiescing", i+1)
		}
	}
	get := func(key string) ([]byte, bool) {
		res, err := d.kvs[0].Execute(gridrep.KVGet(key))
		if err != nil {
			return nil, false
		}
		return gridrep.KVReply(res)
	}
	res.keysChecked, res.txnPairs = lg.checkFinal(get)
	res.walMB = dirMB(d.dir)
	os.RemoveAll(d.dir)
	if bad := lg.bad.list(); len(bad) > 0 {
		for _, m := range bad {
			fmt.Fprintln(os.Stderr, "correctness:", m)
		}
		return nil, fmt.Errorf("%d correctness check(s) failed", len(bad))
	}
	return res, nil
}

// metric is one reported figure; note says what it was counted over.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// primary is the class whose latency a workload's p50_ms/p90_ms report.
func primary(w workload) class {
	switch {
	case w.txn:
		return clsTxn
	case w.readFrac > 0.5:
		return clsGet
	}
	return clsPut
}

// window is one slice of a phase: the figure measured in it and the
// share of the machine's CPU the hypervisor gave other guests meanwhile.
type window struct{ value, steal float64 }

// calmMedian reports the median figure over the calm windows: those whose
// steal is at most the lower quartile of all windows' steal, or 2 %,
// whichever is higher. On a quiet host that is every window; on a shared
// one, where other guests take the CPU in bursts of seconds, only the
// least disturbed. A change to the program moves every window, and one
// that slows the program only now and then still moves the median. The
// pooled tails (client.*_ms.p99) keep the disturbed windows.
func calmMedian(ws []window) (v float64, calm int, cut float64) {
	var steal samples
	for _, w := range ws {
		steal = append(steal, w.steal)
	}
	cut, _ = steal.sorted().quantile(0.25)
	cut = max(cut, 0.02)
	var vs samples
	for _, w := range ws {
		if w.steal <= cut {
			vs = append(vs, w.value)
		}
	}
	return vs.sorted().median(), len(vs), cut
}

func windowList(ws []window) string {
	var v samples
	for _, w := range ws {
		v = append(v, w.value)
	}
	return roundList(v)
}

// windowedLatency splits every round's fixed-rate phase into `windows`
// equal slices by due time, takes quantile q of class c's latencies in
// each slice, and reports the median over the calm slices of all rounds
// (see calmMedian).
func windowedLatency(rs []*runResult, c class, q float64) metric {
	var ws []window
	n := 0
	for _, r := range rs {
		width := time.Duration(r.openSecs * float64(time.Second) / windows)
		slices := make([]samples, windows)
		for i, v := range r.open.lat[c] {
			w := min(int(r.open.latAt[c][i]/width), windows-1)
			slices[w] = append(slices[w], v)
		}
		for i, sl := range slices {
			if len(sl) > 0 {
				v, _ := sl.sorted().quantile(q)
				from := r.openStart.Add(time.Duration(i) * width)
				ws = append(ws, window{v, stealBetween(r.host, from, from.Add(width))})
				n += len(sl)
			}
		}
	}
	v, calm, cut := calmMedian(ws)
	return metric{value: v, unit: "ms",
		note: fmt.Sprintf("median over %d of %d windows with steal <= %.3f of each window's p%g, %d samples; windows %s",
			calm, len(ws), cut, q*100, n, windowList(ws))}
}

// windowedCPU splits every round's fixed-rate phase into `windows` equal
// slices and divides the process CPU time polled in each by the ops
// completed in it, then reports the median over the calm slices of all
// rounds (see calmMedian). A stolen vCPU leaves requests to pile up and
// the runtime to spin and switch more, which costs CPU per op too.
func windowedCPU(rs []*runResult) metric {
	var ws []window
	n := 0
	for _, r := range rs {
		width := time.Duration(r.openSecs * float64(time.Second) / windows)
		done := make([]int, windows)
		for c := range r.open.lat {
			for i, v := range r.open.lat[c] {
				at := r.open.latAt[c][i] + time.Duration(v*float64(time.Millisecond))
				if w := int(at / width); w < windows {
					done[w]++
				}
			}
		}
		for i, ops := range done {
			from := r.openStart.Add(time.Duration(i) * width)
			f, l, ok := polled(r.host, from, from.Add(width))
			if !ok || ops == 0 {
				continue
			}
			// Scale the polled CPU from the polls' interval to the window's.
			cpu := float64(l.cpu-f.cpu) / float64(l.at.Sub(f.at)) * float64(width)
			ws = append(ws, window{cpu / 1e3 / float64(ops), stealBetween(r.host, from, from.Add(width))})
			n += ops
		}
	}
	v, calm, cut := calmMedian(ws)
	return metric{"cpu_us_per_op", v, "us", fmt.Sprintf("median over %d of %d windows with steal <= %.3f of process CPU per op completed, %d ops; windows %s",
		calm, len(ws), cut, n, windowList(ws))}
}

// peakRate splits every round's closed-loop phase into `windows` equal
// slices, counts the ops completed in each, and reports the median rate
// over the calm slices of all rounds (see calmMedian).
func peakRate(rs []*runResult, sessions int) metric {
	var ws []window
	n := 0
	for _, r := range rs {
		width := time.Duration(r.closedSecs * float64(time.Second) / windows)
		counts := make([]int, windows)
		for _, at := range r.closed.doneAt {
			counts[min(int(at/width), windows-1)]++
		}
		for i, c := range counts {
			from := r.closedStart.Add(time.Duration(i) * width)
			ws = append(ws, window{float64(c) / width.Seconds(), stealBetween(r.host, from, from.Add(width))})
		}
		n += len(r.closed.doneAt)
	}
	v, calm, cut := calmMedian(ws)
	return metric{"peak_ops_s", v, "ops/s", fmt.Sprintf("median over %d of %d windows with steal <= %.3f of the ops/s %d sessions completed, %d ops; windows %s",
		calm, len(ws), cut, sessions, n, windowList(ws))}
}

func named(name string, m metric) metric {
	m.name = name
	return m
}

// medianRounds computes f's metrics for every round and reports each
// one's median over the rounds.
func medianRounds(rs []*runResult, f func(*runResult) []metric) []metric {
	per := make([][]metric, len(rs))
	for i, r := range rs {
		per[i] = f(r)
	}
	out := make([]metric, len(per[0]))
	for j, m := range per[0] {
		var v samples
		for i := range per {
			v = append(v, per[i][j].value)
		}
		m.value = v.sorted().median()
		m.note = fmt.Sprintf("median of rounds %s; round 1: %s", roundList(v), m.note)
		out[j] = m
	}
	return out
}

func roundList(v samples) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return "[" + b.String() + "]"
}

// pooled merges the rounds' tallies of one phase.
func pooled(rs []*runResult, phase func(*runResult) *tally) *tally {
	var ts []*tally
	for _, r := range rs {
		ts = append(ts, phase(r))
	}
	return mergeTallies(ts)
}

func openPhase(r *runResult) *tally   { return r.open }
func closedPhase(r *runResult) *tally { return r.closed }

// stealFrac is the share of the machine's CPU time that the hypervisor
// gave to other guests during r's fixed-rate phase.
func stealFrac(r *runResult) float64 {
	return ratio{num: r.proc1.steal - r.proc0.steal, base: r.proc1.hostTotal - r.proc0.hostTotal}.value()
}

func cpuPerOp(r *runResult) float64 {
	return ratio{num: float64(r.proc1.cpu-r.proc0.cpu) / 1e3, base: float64(r.open.ok)}.value()
}

func endToEnd(w workload, rs []*runResult, setups samples) []metric {
	c := primary(w)
	setupS := setups.sorted().median()
	out := []metric{{"setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", len(setups))}}
	out = append(out, named("p50_ms", windowedLatency(rs, c, 0.5)), peakRate(rs, w.peak), windowedCPU(rs))
	out = append(out, medianRounds(rs, func(r *runResult) []metric {
		return []metric{{"peak_rss_mb", r.rssMaxB / (1 << 20), "MB",
			fmt.Sprintf("process resident set, largest of the round, sampled every %v", pollEvery)}}
	})...)
	attempted, failed := totals(rs)
	return append(out,
		metric{"served_frac", 1 - float64(failed)/float64(attempted), "ratio",
			fmt.Sprintf("base %d attempted, both phases, all rounds", attempted)})
}

// totals counts attempted and failed requests over all rounds and phases.
func totals(rs []*runResult) (attempted, failed int) {
	for _, r := range rs {
		attempted += r.attempted()
		failed += r.failed()
	}
	return attempted, failed
}

// perLayer computes the per-layer metrics: layer figures from the traced
// rounds, client-side latencies from the untraced ones. Layer figures
// are medians over rounds and class latencies are windowed as in
// endToEnd; tails, queueing and failure counts pool the rounds' samples.
func perLayer(plain, tr []*runResult) ([]metric, error) {
	out := []metric{}
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name, v, unit, note})
	}
	for c, cn := range classNames {
		out = append(out, named(cn+"_p50_ms", windowedLatency(plain, class(c), 0.5)),
			named(cn+"_p90_ms", windowedLatency(plain, class(c), 0.9)))
	}
	open, closed := pooled(plain, openPhase), pooled(plain, closedPhase)
	attempted, failed := totals(plain)
	add("failed_frac", float64(failed)/float64(attempted), "ratio",
		fmt.Sprintf("%d timeouts, %d errors, %d aborts, %d unserved of %d attempted",
			open.timeouts+closed.timeouts, open.errors+closed.errors,
			open.aborts+closed.aborts, open.unserved+closed.unserved, attempted))

	// client
	q := open.queue.sorted()
	for _, p := range []float64{0.5, 0.9} {
		v, beyond := q.quantile(p)
		add(fmt.Sprintf("client.queue_ms.p%d", int(p*100)), v, "ms", fmt.Sprintf("n=%d, %d above", len(q), beyond))
	}
	for c, cn := range classNames {
		s := open.lat[c].sorted()
		for _, p := range []struct {
			suffix string
			q      float64
		}{{"p99", 0.99}, {"p999", 0.999}} {
			v, beyond := s.quantile(p.q)
			add("client."+cn+"_ms."+p.suffix, v, "ms", fmt.Sprintf("n=%d, %d above", len(s), beyond))
		}
		add("client."+cn+"_ms.samples", float64(len(s)), "count", "fixed-rate phases")
	}
	for _, x := range []struct {
		name string
		s    samples
	}{{"client.txn_op_ms.p50", open.txnOp}, {"client.txn_commit_ms.p50", open.txnCommit}} {
		s := x.s.sorted()
		v, beyond := s.quantile(0.5)
		add(x.name, v, "ms", fmt.Sprintf("n=%d, %d above", len(s), beyond))
	}

	l := medianRounds(tr, layerFigures)
	out = append(out, l...)

	// harness
	var openSecs float64
	for _, r := range plain {
		openSecs += r.openSecs
	}
	add("bench.gen_late_ms.max", open.genLateMax, "ms", "generator wake-up after a due time")
	add("bench.offered_ops_s", float64(open.attempted)/openSecs, "ops/s",
		fmt.Sprintf("%d arrivals in %.1f s", open.attempted, openSecs))
	cpu := func(rs []*runResult) float64 {
		return medianRounds(rs, func(r *runResult) []metric { return []metric{{value: cpuPerOp(r)}} })[0].value
	}
	add("bench.trace_overhead_frac", cpu(tr)/cpu(plain)-1, "ratio", "traced vs untraced CPU per op, medians over rounds")
	var steal samples
	for _, r := range plain {
		steal = append(steal, stealFrac(r))
	}
	add("bench.steal_frac", steal.sorted().median(), "ratio",
		"host CPU the hypervisor gave other guests, median of the untraced rounds' fixed-rate phases "+roundList(steal))

	// Fidelity: the decorator must not change what the replicas do.
	base := medianRounds(plain, layerFigures)
	for _, name := range []string{"storage.kb_per_op", "core.reads_parallel_frac"} {
		a, b := find(base, name), find(l, name)
		if math.Abs(a-b) > fidelityBound*math.Max(math.Abs(a), math.Abs(b)) {
			return nil, fmt.Errorf("traced run's %s = %.4g differs from the untraced run's %.4g by more than %.0f%%",
				name, b, a, fidelityBound*100)
		}
	}
	return out, nil
}
func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// layerFigures derives the core, service, storage, transport, omega and
// runtime metrics of one run's fixed-rate phase.
func layerFigures(r *runResult) []metric {
	var out []metric
	ops := float64(r.open.ok)
	opsNote := fmt.Sprintf("base %d ops in the fixed-rate phase", r.open.ok)
	perOp := func(name string, num float64, unit string) {
		out = append(out, metric{name, ratio{num: num, base: ops}.value(), unit, opsNote})
	}
	add := func(name string, v float64, unit, note string) {
		out = append(out, metric{name, v, unit, note})
	}
	reg := r.reg
	nsMean := func(h string, scale float64) (float64, string) {
		hh := reg.hists[h]
		if hh == nil {
			return 0, "n=0"
		}
		return hh.mean() / scale, fmt.Sprintf("n=%d", hh.count)
	}

	// core
	waves := reg.vals["gridrep_waves_committed_total"]
	coord := float64(len(r.open.lat[clsPut]) + len(r.open.lat[clsTxn]))
	add("core.ops_per_wave", ratio{num: coord, base: waves}.value(), "ops",
		fmt.Sprintf("%.0f puts/txns over %.0f waves", coord, waves))
	add("core.waves_per_s", waves/r.openSecs, "1/s", fmt.Sprintf("%.0f waves in %.1f s", waves, r.openSecs))
	for _, x := range []struct{ name, hist string }{
		{"core.execute_ms.mean", "gridrep_execute_latency_seconds"},
		{"core.quorum_ms.mean", "gridrep_quorum_latency_seconds"},
		{"core.commit_ms.mean", "gridrep_commit_latency_seconds"},
	} {
		v, n := nsMean(x.hist, 1e6)
		add(x.name, v, "ms", n)
	}
	rq := reg.hists["gridrep_request_latency_seconds"]
	add("core.request_ms.p50", rq.quantile(0.5)/1e6, "ms", fmt.Sprintf("n=%d waves", count(rq)))
	par := reg.vals["gridrep_reads_parallel_total"]
	reads := par + reg.vals["gridrep_reads_inline_total"] + reg.vals["gridrep_reads_near_total"]
	add("core.reads_parallel_frac", ratio{num: par, base: reads}.value(), "ratio",
		fmt.Sprintf("base %.0f reads executed", reads))
	add("core.spec_rollbacks", reg.vals["gridrep_spec_rollbacks_total"], "count", "fixed-rate phase")
	add("core.deferred_drops", reg.vals["gridrep_deferred_drops_total"], "count", "fixed-rate phase")

	// service (from the decorator's spans; zero in untraced runs)
	span := func(name string) *layerStat {
		if st := r.spans[name]; st != nil {
			return st
		}
		return &layerStat{}
	}
	meanOf := func(st *layerStat, scale float64) float64 {
		if st.n == 0 {
			return 0
		}
		return float64(st.total) / float64(st.n) / scale
	}
	ex, sn, ad, rs, rd := span("service.execute"), span("service.snapshot"), span("service.apply_delta"),
		span("service.restore"), span("service.read")
	add("service.execute_us.mean", meanOf(ex, 1e3), "us", fmt.Sprintf("n=%d", ex.n))
	add("service.snapshot_ms.mean", meanOf(sn, 1e6), "ms", fmt.Sprintf("n=%d", sn.n))
	perOp("service.snapshots_per_op", float64(sn.n), "count/op")
	add("service.snapshot_kb.mean", ratio{num: float64(sn.bytes) / 1024, base: float64(sn.n)}.value(), "KB",
		fmt.Sprintf("n=%d", sn.n))
	add("service.apply_delta_us.mean", meanOf(ad, 1e3), "us", fmt.Sprintf("n=%d", ad.n))
	add("service.restore_ms.mean", meanOf(rs, 1e6), "ms", fmt.Sprintf("n=%d", rs.n))
	perOp("service.restores_per_op", float64(rs.n), "count/op")
	add("service.read_us.mean", meanOf(rd, 1e3), "us", fmt.Sprintf("n=%d", rd.n))

	// storage
	perOp("storage.fsyncs_per_op", reg.vals["gridrep_wal_syncs_total"], "count/op")
	fs := reg.hists["gridrep_wal_fsync_latency_seconds"]
	add("storage.fsync_ms.p50", fs.quantile(0.5)/1e6, "ms", fmt.Sprintf("n=%d", count(fs)))
	add("storage.fsync_ms.p99", fs.quantile(0.99)/1e6, "ms", fmt.Sprintf("n=%d", count(fs)))
	batches := reg.vals["gridrep_wal_batches_total"]
	add("storage.records_per_batch", ratio{num: reg.vals["gridrep_wal_records_total"], base: batches}.value(), "count",
		fmt.Sprintf("base %.0f batches", batches))
	perOp("storage.kb_per_op", reg.vals["gridrep_wal_batch_bytes_total"]/1024, "KB/op")
	perOp("storage.rewrites_per_kop", reg.vals["gridrep_wal_rewrites_total"]*1000, "count/kop")
	add("storage.wal_mb_end", r.walMB, "MB", "on disk, 3 replicas, after shutdown")

	// transport
	perOp("transport.msgs_per_op", reg.vals["gridrep_tcp_sent_total"], "count/op")
	v, n := nsMean("gridrep_tcp_decode_seconds", 1e3)
	add("transport.decode_us.mean", v, "us", n)
	add("transport.queue_depth.max", float64(r.queueMax), "count", fmt.Sprintf("sampled every %v", pollEvery))
	add("transport.drops", reg.sumMatching("gridrep_tcp_drop_", "_total",
		"gridrep_tcp_drop_reply_shed_total", "gridrep_tcp_drop_reply_slow_client_total"), "count", "fixed-rate phase")
	add("transport.reconnects", reg.vals["gridrep_tcp_reconnects_total"], "count", "fixed-rate phase")

	// omega
	add("omega.leader_changes", float64(r.leaderChanges), "count", "whole run after set-up")

	// Go runtime, whole process
	cpu := (r.proc1.cpu - r.proc0.cpu).Seconds()
	perOp("runtime.alloc_kb_per_op", (r.proc1.allocBytes-r.proc0.allocBytes)/1024, "KB/op")
	add("runtime.gc_cpu_frac", ratio{num: r.proc1.gcCPU - r.proc0.gcCPU, base: cpu}.value(), "ratio",
		fmt.Sprintf("base %.2f s process CPU", cpu))
	perOp("runtime.gc_cycles_per_kop", (r.proc1.gcCycles-r.proc0.gcCycles)*1000, "count/kop")
	add("runtime.gc_pause_ms.max", maxPauseMS(r.proc0.gcPauses, r.proc1.gcPauses), "ms", "bucket upper edge")
	add("runtime.heap_peak_mb", r.heapMaxB/(1<<20), "MB", fmt.Sprintf("sampled every %v", pollEvery))
	return out
}

func count(h *hist) uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

func printReport(w workload, seed int64, seconds float64, plain []*runResult, ms []metric) {
	fmt.Printf("workload %s seed %d: %d keys x %d B, read share %.2f, txn %v, %.0f/s fixed rate, %d open / %d peak sessions, %.0f s measured\n",
		w.name, seed, w.keys, w.valueSize, w.readFrac, w.txn, w.rate, w.sessions, w.peak, seconds)
	fmt.Printf("why: %s\n", w.why)
	for i, r := range plain {
		fmt.Printf("round %d checks: %d keys' final values, %d transaction pairs, replica states equal, read-back per session; %d failed, %d leader changes\n",
			i+1, r.keysChecked, r.txnPairs, r.failed(), r.leaderChanges)
		lat := r.open.lat[primary(w)].sorted()
		p50, _ := lat.quantile(0.5)
		p90, _ := lat.quantile(0.9)
		fmt.Printf("round %d: %s p50 %.3f ms, p90 %.3f ms over the fixed-rate phase\n", i+1, classNames[primary(w)], p50, p90)
	}
	open, closed := pooled(plain, openPhase), pooled(plain, closedPhase)
	fmt.Printf("failures: %d timeouts, %d errors, %d aborts, %d unserved of %d attempted\n",
		open.timeouts+closed.timeouts, open.errors+closed.errors,
		open.aborts+closed.aborts, open.unserved+closed.unserved, open.attempted+closed.attempted)
	var steal samples
	for _, r := range plain {
		steal = append(steal, stealFrac(r))
	}
	fmt.Printf("host: hypervisor steal %s of the machine's CPU in each round's fixed-rate phase\n", roundList(steal))
	q := open.queue.sorted()
	q50, _ := q.quantile(0.5)
	q90, _ := q.quantile(0.9)
	fmt.Printf("queueing (due time to call start): p50 %.3f ms, p90 %.3f ms, n=%d; generator at most %.3f ms late\n",
		q50, q90, len(q), open.genLateMax)
	if why := open.why + closed.why; why != "" {
		fmt.Printf("first failure: %s\n", why)
	}
	for _, m := range ms {
		fmt.Printf("%-28s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	for _, m := range ms {
		out[m.name] = jm{m.value, m.unit}
	}
	attempted, failed := totals(plain)
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{true, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
