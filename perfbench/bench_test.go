package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridrep"
)

func TestQuantileReportsSamplesAbove(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	s = s.sorted()
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.5, 50, 50}, {0.9, 90, 10}, {0.99, 99, 1}, {0.999, 100, 0}} {
		v, beyond := s.quantile(c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(%v) = %v with %d above, want %v with %d above", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := samples(nil).quantile(0.5); v != 0 || beyond != 0 {
		t.Errorf("empty quantile = %v, %d", v, beyond)
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	// Four values in bucket 3, which covers (4, 8].
	h := &hist{count: 4, sum: 24, counts: []uint64{0, 0, 0, 4, 0}}
	if got := h.quantile(0.5); got != 6 {
		t.Errorf("p50 = %v, want 6", got)
	}
	if got := h.mean(); got != 6 {
		t.Errorf("mean = %v, want 6", got)
	}
	d := &hist{}
	d.add(h, +1)
	d.add(&hist{count: 1, sum: 5, counts: []uint64{0, 0, 0, 1}}, -1)
	if d.count != 3 || d.counts[3] != 3 {
		t.Errorf("delta = %+v", d)
	}
}

// A session that takes 30ms per request falls behind arrivals due every
// 10ms; each latency must include the time its request waited.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 30 * time.Millisecond
	plan := [][]arrival{{{at: 0}, {at: 10 * time.Millisecond}, {at: 20 * time.Millisecond}}}
	exec := func(int, arrival, *tally) failKind { time.Sleep(service); return okay }
	tl := runOpen(plan, time.Now(), 0, time.Second, 0, exec)[0]
	if tl.ok != 3 || len(tl.lat[clsPut]) != 3 {
		t.Fatalf("ok = %d, samples = %d, want 3", tl.ok, len(tl.lat[clsPut]))
	}
	for i, lat := range tl.lat[clsPut] {
		due := ms(plan[0][i].at)
		if min := float64(i+1)*ms(service) - due; lat < min {
			t.Errorf("request %d: latency %.1fms, want at least %.1fms from its due time", i, lat, min)
		}
	}
	if q := tl.queue[2]; q < 2*ms(service)-20 {
		t.Errorf("third request queued %.1fms, want at least %.1fms", q, 2*ms(service)-20)
	}
}

func TestOpenLoopCountsUnservedArrivalsAsFailed(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 20; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 5 * time.Millisecond})
	}
	// The first 4 arrivals are warm-up; the window holds the other 16.
	exec := func(_ int, _ arrival, _ *tally) failKind { time.Sleep(40 * time.Millisecond); return okay }
	tl := runOpen([][]arrival{arrivals}, time.Now(), 20*time.Millisecond, 80*time.Millisecond, 0, exec)[0]
	if tl.attempted != 16 {
		t.Errorf("attempted = %d, want the 16 arrivals due in the window", tl.attempted)
	}
	if tl.unserved == 0 || tl.ok+tl.unserved != tl.attempted || tl.failed() != tl.unserved {
		t.Errorf("ok %d + unserved %d != attempted %d (failed %d)", tl.ok, tl.unserved, tl.attempted, tl.failed())
	}
}

func TestOpenLoopDrainsArrivalsQueuedAtTheClose(t *testing.T) {
	var arrivals []arrival
	for i := 0; i < 16; i++ {
		arrivals = append(arrivals, arrival{at: time.Duration(i) * 5 * time.Millisecond})
	}
	// 16 requests of 10ms due over 80ms: half are still queued behind
	// the session's in-flight request when the window closes.
	exec := func(_ int, _ arrival, _ *tally) failKind { time.Sleep(10 * time.Millisecond); return okay }
	tl := runOpen([][]arrival{arrivals}, time.Now(), 0, 80*time.Millisecond, time.Second, exec)[0]
	if tl.attempted != 16 || tl.ok != 16 || tl.failed() != 0 {
		t.Fatalf("attempted %d, ok %d, failed %d; want all 16 served within the drain", tl.attempted, tl.ok, tl.failed())
	}
	if last := tl.lat[clsPut][15]; last < 160-75 {
		t.Errorf("last request's latency %.1fms, want it timed from its due time (at least 85ms)", last)
	}
}

func TestPlanIsSeededAndKeysOwned(t *testing.T) {
	for _, w := range workloads {
		a, b := planOpen(w, 7, 2*time.Second), planOpen(w, 7, 2*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different plans", w.name)
		}
		if reflect.DeepEqual(a, planOpen(w, 8, 2*time.Second)) {
			t.Fatalf("%s: different seeds gave the same plan", w.name)
		}
		n := 0
		for s, as := range a {
			for _, x := range as {
				n++
				writes := x.keys[:1]
				if x.cls == clsTxn {
					writes = x.keys[:]
					if x.keys[0] == x.keys[1] || x.keys[1] == x.keys[2] || x.keys[0] == x.keys[2] {
						t.Fatalf("%s: transaction keys not distinct: %v", w.name, x.keys)
					}
				}
				if x.cls == clsGet {
					continue
				}
				for _, k := range writes {
					if int(k)%w.sessions != s {
						t.Fatalf("%s: session %d writes key %d it does not own", w.name, s, k)
					}
				}
			}
		}
		if want := w.rate * 2; float64(n) < 0.8*want || float64(n) > 1.2*want {
			t.Errorf("%s: %d arrivals in 2s, want about %.0f", w.name, n, want)
		}
	}
}

func TestFinalCheckUsesHistory(t *testing.T) {
	w := workload{name: "t", keys: 4, valueSize: 32, sessions: 2, txn: true}
	d := &loadGen{w: w, bad: &violations{}}
	ss := newSession(0, nil)
	d.sess = []*session{ss}
	// seq 1 acked on keys 0 and 2; seq 2 uncertain on key 0; seq 3
	// aborted on keys 0 and 2.
	ss.hist[0] = []write{{1, acked}, {2, uncertain}, {3, aborted}}
	ss.hist[2] = []write{{1, acked}, {3, aborted}}
	ss.txns[1] = &txnRec{keys: [2]int32{0, 2}, idx: [2]int{0, 0}, st: acked}
	ss.txns[3] = &txnRec{keys: [2]int32{0, 2}, idx: [2]int{2, 1}, st: aborted}
	if !d.allowed(ss, 0, value(0, 0, 1, 32)) || !d.allowed(ss, 0, value(0, 0, 2, 32)) {
		t.Error("last acked and later uncertain values must be allowed")
	}
	if d.allowed(ss, 0, value(0, 0, 3, 32)) || d.allowed(ss, 0, value(0, -1, 0, 32)) {
		t.Error("aborted and overwritten values must not be allowed")
	}
	state := map[string][]byte{keyName(0): value(0, 0, 1, 32), keyName(2): value(2, 0, 1, 32)}
	get := func(k string) ([]byte, bool) { v, ok := state[k]; return v, ok }
	// Key 0 may still receive seq 2 (uncertain), so only key 0's view of
	// seq 1 makes a pair to check.
	if keys, pairs := d.checkFinal(get); keys != 2 || pairs != 1 || len(d.bad.list()) != 0 {
		t.Fatalf("consistent state: keys %d pairs %d violations %v", keys, pairs, d.bad.list())
	}
	// Half of a transaction visible: key 2 lost seq 1's write.
	state[keyName(2)] = value(2, -1, 0, 32)
	d.checkFinal(get)
	if len(d.bad.list()) == 0 {
		t.Fatal("a partly applied transaction passed the check")
	}
}

func TestTracedKVForwardsProbedInterfaces(t *testing.T) {
	kv := gridrep.NewKV()
	rec := newRecorder()
	tk := newTracedKV(kv, kv.ReadView, rec, 0)
	type replayer interface {
		ExecuteCapture(op []byte) (reply, aux []byte, err error)
	}
	probes := map[string]func(any) bool{
		"Transactional": func(x any) bool { _, ok := x.(gridrep.Transactional); return ok },
		"Differ":        func(x any) bool { _, ok := x.(differ); return ok },
		"Sharder":       func(x any) bool { _, ok := x.(sharder); return ok },
		"Replayer":      func(x any) bool { _, ok := x.(replayer); return ok },
		"ReadViewer":    func(x any) bool { return hasReadView(x, kv.ReadView) },
		"Exclusive": func(x any) bool {
			e, ok := x.(exclusive)
			return ok && e.ExclusiveTxns()
		},
	}
	for name, probe := range probes {
		if probe(kv) != probe(tk) {
			t.Errorf("%s: KV %v, decorator %v", name, probe(kv), probe(tk))
		}
	}
	if _, err := tk.Execute(gridrep.KVPut("k", []byte("k|1|2|"))); err != nil {
		t.Fatal(err)
	}
	view, ok := tk.ReadView()
	if !ok {
		t.Fatal("no read view")
	}
	res, err := any(view).(readExec).ReadExecute(gridrep.KVGet("k"))
	if v, _ := gridrep.KVReply(res); err != nil || string(v) != "k|1|2|" {
		t.Fatalf("read through the traced view = %q, %v", v, err)
	}
	got := map[string]int{}
	for _, sp := range rec.spans {
		got[sp.name]++
		if sp.name == "service.execute" && (sp.sess != 1 || sp.seq != 2) {
			t.Errorf("execute span id %d:%d, want 1:2", sp.sess, sp.seq)
		}
	}
	if got["service.execute"] != 1 || got["service.read"] != 1 {
		t.Errorf("spans = %v", got)
	}
}

// hasReadView reports whether x has a ReadView method of the KV's type.
func hasReadView[V any](x any, _ func() (V, bool)) bool {
	_, ok := x.(interface{ ReadView() (V, bool) })
	return ok
}

// fakeRun is a round with the given ops completed in its fixed-rate
// phase and nothing else.
func fakeRun(ok int) *runResult {
	r := &runResult{open: &tally{ok: ok, attempted: ok}, closed: &tally{}, openSecs: 1, closedSecs: 1,
		reg: regSnap{vals: map[string]float64{}, hists: map[string]*hist{}}, spans: map[string]*layerStat{}}
	r.proc1.cpu = time.Duration(ok) * time.Millisecond
	return r
}

func TestPerOpRatiosCarryTheirBase(t *testing.T) {
	r := fakeRun(200)
	r.reg.vals["gridrep_wal_batch_bytes_total"] = 200 * 2048
	for _, m := range layerFigures(r) {
		if m.name == "storage.kb_per_op" {
			if m.value != 2 || !strings.Contains(m.note, "base 200 ops") {
				t.Errorf("storage.kb_per_op = %v (%s), want 2 with base 200 ops", m.value, m.note)
			}
			return
		}
	}
	t.Fatal("storage.kb_per_op missing")
}

// The names, units and directions the program prints must be the ones
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
	}
	rs := []*runResult{fakeRun(10)}
	per, err := perLayer(rs, rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd(workloads[0], rs, samples{1}), spec.EndToEnd}, {"per_layer", per, spec.PerLayer}} {
		got := map[string]string{}
		for _, m := range c.got {
			got[m.name] = m.unit
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", c.kind, len(got), len(c.want))
		}
		for _, m := range c.want {
			if u, ok := got[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s in %q, program prints unit %q (present %v)", c.kind, m.Name, m.Unit, u, ok)
			}
		}
	}
}

// Windows the hypervisor stole from must not move the windowed p90 on a
// shared host, while the pooled p99 tail still shows them. On a quiet
// host every window counts.
func TestWindowedLatencySkipsStolenWindows(t *testing.T) {
	r := fakeRun(0)
	r.openSecs = 4
	r.openStart = time.Unix(1000, 0)
	for i := 0; i < 400; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		v := 1.0
		if at >= 2*time.Second {
			v = 100
		}
		r.open.lat[clsPut] = append(r.open.lat[clsPut], v)
		r.open.latAt[clsPut] = append(r.open.latAt[clsPut], at)
	}
	stolen := func(from time.Duration) {
		r.host = nil
		var steal float64
		for ms := 0; ms <= 4000; ms += 20 {
			r.host = append(r.host, hostSample{r.openStart.Add(time.Duration(ms) * time.Millisecond), steal, float64(ms), 0})
			if time.Duration(ms)*time.Millisecond >= from {
				steal += 10 // half the machine's CPU
			}
		}
	}
	stolen(2 * time.Second)
	m := windowedLatency([]*runResult{r}, clsPut, 0.9)
	if want := fmt.Sprintf("of %d windows", windows); m.value != 1 || !strings.Contains(m.note, want) {
		t.Errorf("windowed p90 = %v (%s), want 1 %s", m.value, m.note, want)
	}
	if v, _ := r.open.lat[clsPut].sorted().quantile(0.99); v != 100 {
		t.Errorf("pooled p99 = %v, want the stolen windows' 100", v)
	}
	stolen(time.Hour)
	if m := windowedLatency([]*runResult{r}, clsPut, 0.9); m.value != 50.5 {
		t.Errorf("quiet host: windowed p90 = %v (%s), want the median over all windows, 50.5", m.value, m.note)
	}
}

// CPU per op divides each window's polled process CPU by the ops that
// completed in it.
func TestWindowedCPUDividesByOpsCompleted(t *testing.T) {
	r := fakeRun(0)
	r.openSecs = 4
	r.openStart = time.Unix(1000, 0)
	for i := 0; i < 400; i++ {
		r.open.lat[clsGet] = append(r.open.lat[clsGet], 1)
		r.open.latAt[clsGet] = append(r.open.latAt[clsGet], time.Duration(i)*10*time.Millisecond)
	}
	for ms := 0; ms <= 4000; ms += 20 {
		at := time.Duration(ms) * time.Millisecond
		r.host = append(r.host, hostSample{r.openStart.Add(at), 0, float64(ms), at / 20}) // 5 % of a CPU
	}
	// 0.5 s windows hold 50 ops and 25 ms of CPU each.
	if m := windowedCPU([]*runResult{r}); math.Abs(m.value-500) > 1e-6 {
		t.Errorf("cpu_us_per_op = %v (%s), want 500", m.value, m.note)
	}
}
