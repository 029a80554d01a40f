package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"gridrep"
)

// span is one timed call at a layer boundary. Spans of one request share
// the id "session:seq"; service spans carry it when the op names it (a
// put's value does) and are otherwise unattributed.
type span struct {
	name       string
	replica    int // -1 for client spans
	sess, seq  int // sess -1: no request id
	start, end time.Duration
	bytes      int
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

func (r *recorder) client(name string, sess, seq int, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(span{name: name, replica: -1, sess: sess, seq: seq, start: start.Sub(r.t0), end: end.Sub(r.t0)})
}

func (r *recorder) service(name string, replica int, op []byte, start time.Time, n int) {
	end := time.Now()
	sess, seq, ok := stampOf(op)
	if !ok {
		sess = -1 // gets and state transfers name no request
	}
	r.add(span{name: name, replica: replica, sess: sess, seq: seq, start: start.Sub(r.t0), end: end.Sub(r.t0), bytes: n})
}

// layerStat totals the spans of one name inside a time window.
type layerStat struct {
	n     int
	total time.Duration
	bytes int64
}

// window sums spans that start in [from, to).
func (r *recorder) window(from, to time.Time) map[string]*layerStat {
	out := map[string]*layerStat{}
	if r == nil {
		return out
	}
	lo, hi := from.Sub(r.t0), to.Sub(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sp := range r.spans {
		if sp.start < lo || sp.start >= hi {
			continue
		}
		st := out[sp.name]
		if st == nil {
			st = &layerStat{}
			out[sp.name] = st
		}
		st.n++
		st.total += sp.end - sp.start
		st.bytes += int64(sp.bytes)
	}
	return out
}

// selfTimes returns, per client span name, the total span time and the
// part not covered by service spans of the same request (the guide's
// self time: duration minus the part its child spans cover).
func (r *recorder) selfTimes() map[string][2]time.Duration {
	type key struct{ sess, seq int }
	children := map[key][]span{}
	for _, sp := range r.spans {
		if sp.replica >= 0 && sp.sess >= 0 {
			k := key{sp.sess, sp.seq}
			children[k] = append(children[k], sp)
		}
	}
	out := map[string][2]time.Duration{}
	for _, sp := range r.spans {
		if sp.replica >= 0 {
			continue
		}
		kids := children[key{sp.sess, sp.seq}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered, at := time.Duration(0), sp.start
		for _, c := range kids {
			s, e := max(c.start, at), min(c.end, sp.end)
			if e > s {
				covered += e - s
				at = e
			}
		}
		t := out[sp.name]
		t[0] += sp.end - sp.start
		t[1] += sp.end - sp.start - covered
		out[sp.name] = t
	}
	return out
}

// writeFile writes every span as one tab-separated line: name, replica
// (-1 = client), request id, start and end in ns from the run start,
// and bytes.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name\treplica\tid\tstart_ns\tend_ns\tbytes")
	r.mu.Lock()
	for _, sp := range r.spans {
		id := "-"
		if sp.sess >= 0 {
			id = fmt.Sprintf("%d:%d", sp.sess, sp.seq)
		}
		fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%d\n", sp.name, sp.replica, id, sp.start, sp.end, sp.bytes)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The optional service interfaces the replica probes. Their method sets
// hold only byte slices, so they are restated here; ReadViewer's view
// type is carried by tracedKV's type parameter instead.
type (
	differ interface {
		ExecuteDelta(op []byte) (reply, delta []byte, err error)
		ApplyDelta(delta []byte) error
	}
	sharder interface {
		ShardKey(op []byte) ([]byte, bool)
	}
	exclusive interface{ ExclusiveTxns() bool }
	readExec  interface {
		ReadExecute(op []byte) ([]byte, error)
	}
)

// kvService is what the decorator needs of the store it wraps: the KV
// implements all of it.
type kvService interface {
	gridrep.Transactional
	differ
	sharder
}

// tracedKV times every call into one replica's KV and records it as a
// service.* span. It forwards each optional interface the replica
// probes — Transactional, Differ, ReadViewer, Sharder and the
// exclusivity check — so the replica picks the same state mode and read
// path as it does for the bare KV. V is the KV's read-view type,
// inferred from its ReadView method.
type tracedKV[V any] struct {
	kv      kvService
	view    func() (V, bool)
	rec     *recorder
	replica int
}

func newTracedKV[V any](kv kvService, view func() (V, bool), rec *recorder, replica int) *tracedKV[V] {
	return &tracedKV[V]{kv: kv, view: view, rec: rec, replica: replica}
}

func (t *tracedKV[V]) Execute(op []byte) ([]byte, error) {
	t0 := time.Now()
	res, err := t.kv.Execute(op)
	t.rec.service(execName(op), t.replica, op, t0, 0)
	return res, err
}

// execName tells reads from writes among executed ops: every value the
// benchmark writes contains '|', and keys never do.
func execName(op []byte) string {
	if bytes.IndexByte(op, '|') < 0 {
		return "service.read"
	}
	return "service.execute"
}

func (t *tracedKV[V]) Snapshot() []byte {
	t0 := time.Now()
	s := t.kv.Snapshot()
	t.rec.service("service.snapshot", t.replica, nil, t0, len(s))
	return s
}

func (t *tracedKV[V]) Restore(snap []byte) error {
	t0 := time.Now()
	err := t.kv.Restore(snap)
	t.rec.service("service.restore", t.replica, nil, t0, len(snap))
	return err
}

func (t *tracedKV[V]) ExecuteDelta(op []byte) (reply, delta []byte, err error) {
	t0 := time.Now()
	reply, delta, err = t.kv.ExecuteDelta(op)
	t.rec.service("service.execute", t.replica, op, t0, len(delta))
	return reply, delta, err
}

func (t *tracedKV[V]) ApplyDelta(delta []byte) error {
	t0 := time.Now()
	err := t.kv.ApplyDelta(delta)
	t.rec.service("service.apply_delta", t.replica, nil, t0, len(delta))
	return err
}

func (t *tracedKV[V]) ShardKey(op []byte) ([]byte, bool) { return t.kv.ShardKey(op) }

func (t *tracedKV[V]) ExclusiveTxns() bool {
	e, ok := t.kv.(exclusive)
	return ok && e.ExclusiveTxns()
}

func (t *tracedKV[V]) Begin(txn uint64) (gridrep.Workspace, error) {
	ws, err := t.kv.Begin(txn)
	if err != nil {
		return nil, err
	}
	return &tracedWS{ws: ws, t: t.rec, replica: t.replica}, nil
}

func (t *tracedKV[V]) ReadView() (V, bool) {
	v, ok := t.view()
	if !ok {
		return v, false
	}
	inner, isExec := any(v).(readExec)
	if !isExec {
		return v, true
	}
	wrapped, fits := any(&tracedView{v: inner, rec: t.rec, replica: t.replica}).(V)
	if !fits {
		return v, true
	}
	return wrapped, true
}

// tracedView times reads served from a pinned view off the event loop.
type tracedView struct {
	v       readExec
	rec     *recorder
	replica int
}

func (v *tracedView) ReadExecute(op []byte) ([]byte, error) {
	t0 := time.Now()
	res, err := v.v.ReadExecute(op)
	v.rec.service("service.read", v.replica, op, t0, 0)
	return res, err
}

// tracedWS times transaction operations executed in a workspace.
type tracedWS struct {
	ws      gridrep.Workspace
	t       *recorder
	replica int
}

func (w *tracedWS) Execute(op []byte) ([]byte, error) {
	t0 := time.Now()
	res, err := w.ws.Execute(op)
	w.t.service(execName(op), w.replica, op, t0, 0)
	return res, err
}

func (w *tracedWS) Commit() error { return w.ws.Commit() }
func (w *tracedWS) Abort()        { w.ws.Abort() }
