package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gridrep"
)

// wstatus is what the client learned about a write.
type wstatus uint8

const (
	acked     wstatus = iota
	uncertain         // timed out or failed: it may or may not have applied
	aborted           // a transaction that never committed: must not be visible
)

type write struct {
	seq int
	st  wstatus
}

// txnRec is one transaction's two puts: their keys and their positions
// in those keys' histories.
type txnRec struct {
	keys [2]int32
	idx  [2]int
	st   wstatus
}

// session is one logical client. Only its own goroutine touches it
// during a phase, and it alone writes its owned keys, so its history
// says which value each of those keys may hold.
type session struct {
	id      int
	c       *gridrep.Client
	seq     int // per-session op counter; also the stamp in written values
	hist    map[int32][]write
	txns    map[int]*txnRec
	lastKey int32 // key of the last acknowledged write, -1 if none
}

func newSession(id int, c *gridrep.Client) *session {
	return &session{id: id, c: c, hist: map[int32][]write{}, txns: map[int]*txnRec{}, lastKey: -1}
}

// violations collects correctness failures; any one fails the run.
type violations struct {
	mu   sync.Mutex
	msgs []string
}

func (v *violations) addf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.msgs) < 20 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) list() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.msgs...)
}

// loadGen issues generated requests through the sessions.
type loadGen struct {
	w    workload
	sess []*session
	rec  *recorder // nil when untraced
	bad  *violations
}

// failure classifies err and keeps the first failure's message in t
// (nil during warm-up) for the report.
func failure(t *tally, err error) failKind {
	if t != nil && t.why == "" {
		t.why = err.Error()
	}
	return classify(err)
}

func classify(err error) failKind {
	switch {
	case errors.Is(err, gridrep.ErrTimeout):
		return failTimeout
	case errors.Is(err, gridrep.ErrAborted):
		return failAbort
	}
	return failError
}

func statusOf(err error) wstatus {
	switch {
	case err == nil:
		return acked
	case errors.Is(err, gridrep.ErrAborted):
		return aborted
	}
	return uncertain
}

// checkRead verifies a get's reply: every key is preloaded, and every
// value written for it starts with its name.
func (d *loadGen) checkRead(k int32, res []byte) {
	v, found := gridrep.KVReply(res)
	if !found || !bytes.HasPrefix(v, []byte(keyName(k)+"|")) {
		d.bad.addf("get %s returned %q (found=%v)", keyName(k), v, found)
	}
}

func (d *loadGen) exec(s int, a arrival, t *tally) failKind {
	ss := d.sess[s]
	ss.seq++
	seq := ss.seq
	switch a.cls {
	case clsGet:
		t0 := time.Now()
		res, err := ss.c.Read(gridrep.KVGet(keyName(a.keys[0])))
		d.rec.client("client.read", s, seq, t0, time.Now())
		if err != nil {
			return failure(t, err)
		}
		d.checkRead(a.keys[0], res)
	case clsPut:
		k := a.keys[0]
		t0 := time.Now()
		_, err := ss.c.Write(gridrep.KVPut(keyName(k), value(k, s, seq, d.w.valueSize)))
		d.rec.client("client.write", s, seq, t0, time.Now())
		st := statusOf(err)
		ss.hist[k] = append(ss.hist[k], write{seq: seq, st: st})
		if err != nil {
			return failure(t, err)
		}
		ss.lastKey = k
	case clsTxn:
		return d.txn(ss, seq, a, t)
	}
	return okay
}

// txn gets keys[0], puts keys[1] and keys[2] and commits. It never
// retries: an abort is a failed op.
func (d *loadGen) txn(ss *session, seq int, a arrival, t *tally) failKind {
	tx := ss.c.Begin()
	ops := [3][]byte{
		gridrep.KVGet(keyName(a.keys[0])),
		gridrep.KVPut(keyName(a.keys[1]), value(a.keys[1], ss.id, seq, d.w.valueSize)),
		gridrep.KVPut(keyName(a.keys[2]), value(a.keys[2], ss.id, seq, d.w.valueSize)),
	}
	var err error
	for i, op := range ops {
		t0 := time.Now()
		var res []byte
		res, err = tx.Do(op)
		now := time.Now()
		d.rec.client("client.txn_op", ss.id, seq, t0, now)
		if t != nil {
			t.txnOp = append(t.txnOp, ms(now.Sub(t0)))
		}
		if err != nil {
			break
		}
		if i == 0 {
			d.checkRead(a.keys[0], res)
		}
	}
	st := aborted
	if err != nil {
		if !errors.Is(err, gridrep.ErrAborted) {
			// Release the leader's locks on the session's keys; the
			// transaction never reached Commit, so it cannot apply.
			_ = tx.Abort()
		}
	} else {
		t0 := time.Now()
		err = tx.Commit()
		now := time.Now()
		d.rec.client("client.txn_commit", ss.id, seq, t0, now)
		if t != nil {
			t.txnCommit = append(t.txnCommit, ms(now.Sub(t0)))
		}
		st = statusOf(err)
	}
	rec := &txnRec{keys: [2]int32{a.keys[1], a.keys[2]}, st: st}
	for i, k := range rec.keys {
		rec.idx[i] = len(ss.hist[k])
		ss.hist[k] = append(ss.hist[k], write{seq: seq, st: st})
	}
	ss.txns[seq] = rec
	if err != nil {
		return failure(t, err)
	}
	ss.lastKey = a.keys[2]
	return okay
}

// allowed reports whether v is a value key k of session ss may hold:
// the last acknowledged write (or the preloaded value, if none was
// acknowledged) or any later write whose outcome the client never
// learned.
func (d *loadGen) allowed(ss *session, k int32, v []byte) bool {
	h := ss.hist[k]
	last := -1
	for i, wr := range h {
		if wr.st == acked {
			last = i
		}
	}
	want := value(k, -1, 0, d.w.valueSize)
	if last >= 0 {
		want = value(k, ss.id, h[last].seq, d.w.valueSize)
	}
	if bytes.Equal(v, want) {
		return true
	}
	for _, wr := range h[last+1:] {
		if wr.st == uncertain && bytes.Equal(v, value(k, ss.id, wr.seq, d.w.valueSize)) {
			return true
		}
	}
	return false
}

// readBack reads each session's last acknowledged key through the
// session and checks the value against the session's history.
func (d *loadGen) readBack() {
	for _, ss := range d.sess {
		if ss.lastKey < 0 {
			continue
		}
		res, err := ss.c.Read(gridrep.KVGet(keyName(ss.lastKey)))
		if err != nil {
			d.bad.addf("read-back of %s by session %d: %v", keyName(ss.lastKey), ss.id, err)
			continue
		}
		if v, _ := gridrep.KVReply(res); !d.allowed(ss, ss.lastKey, v) {
			d.bad.addf("read-back of %s by session %d: %q is not its last acknowledged value", keyName(ss.lastKey), ss.id, v)
		}
	}
}

// stampOf parses the session and seq that a written value carries
// ("k00042|17|305|...."). It also finds them inside a put op, whose
// encoding ends with the value.
func stampOf(v []byte) (sess, seq int, ok bool) {
	f := bytes.SplitN(v, []byte("|"), 4)
	if len(f) < 4 {
		return 0, 0, false
	}
	sess, err1 := strconv.Atoi(string(f[1]))
	seq, err2 := strconv.Atoi(string(f[2]))
	return sess, seq, err1 == nil && err2 == nil
}

// checkFinal checks every written key's value in the final state (get
// reads it from one replica's service after shutdown), and on
// transactional workloads that a transaction visible on one of its keys
// is visible on the other unless a later write replaced it there.
func (d *loadGen) checkFinal(get func(key string) ([]byte, bool)) (keys, txnPairs int) {
	for _, ss := range d.sess {
		for k := range ss.hist {
			keys++
			v, found := get(keyName(k))
			if !found || !d.allowed(ss, k, v) {
				d.bad.addf("final %s = %q: not a value session %d's history allows", keyName(k), v, ss.id)
				continue
			}
			sess, seq, ok := stampOf(v)
			if !ok || sess != ss.id {
				continue // preloaded value
			}
			rec := ss.txns[seq]
			if rec == nil {
				continue
			}
			for i, o := range rec.keys {
				if o == k {
					continue
				}
				replaced := false
				for _, wr := range ss.hist[o][rec.idx[i]+1:] {
					replaced = replaced || wr.st != aborted
				}
				if replaced {
					continue
				}
				txnPairs++
				if ov, _ := get(keyName(o)); !bytes.Equal(ov, value(o, ss.id, seq, d.w.valueSize)) {
					d.bad.addf("transaction %d:%d visible on %s but not on %s (%q)", ss.id, seq, keyName(k), keyName(o), ov)
				}
			}
		}
	}
	return keys, txnPairs
}
