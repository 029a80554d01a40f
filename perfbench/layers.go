package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridrep"
)

// regSnap is the replicas' metrics registries summed: counters and
// gauges by value, histograms bucket by bucket.
type regSnap struct {
	vals  map[string]float64
	hists map[string]*hist
}

func snapshotRegistries(servers []*gridrep.Server) regSnap {
	rs := regSnap{vals: map[string]float64{}, hists: map[string]*hist{}}
	for _, s := range servers {
		for _, m := range s.Metrics().Snapshot() {
			if m.Hist == nil {
				rs.vals[m.Name] += float64(m.Value)
				continue
			}
			h := &hist{count: m.Hist.Count, sum: m.Hist.Sum, counts: append([]uint64(nil), m.Hist.Counts[:]...)}
			if prev := rs.hists[m.Name]; prev != nil {
				prev.add(h, +1)
			} else {
				rs.hists[m.Name] = h
			}
		}
	}
	return rs
}

// minus returns the change from before to rs.
func (rs regSnap) minus(before regSnap) regSnap {
	d := regSnap{vals: map[string]float64{}, hists: map[string]*hist{}}
	for k, v := range rs.vals {
		d.vals[k] = v - before.vals[k]
	}
	for k, h := range rs.hists {
		c := &hist{}
		c.add(h, +1)
		if b := before.hists[k]; b != nil {
			c.add(b, -1)
		}
		d.hists[k] = c
	}
	return d
}

// sumMatching sums every counter whose name starts with prefix and ends
// with suffix, except the names in skip.
func (rs regSnap) sumMatching(prefix, suffix string, skip ...string) float64 {
	var n float64
next:
	for k, v := range rs.vals {
		if !strings.HasPrefix(k, prefix) || !strings.HasSuffix(k, suffix) {
			continue
		}
		for _, s := range skip {
			if k == s {
				continue next
			}
		}
		n += v
	}
	return n
}

// procSnap is the process-wide state at a phase boundary.
type procSnap struct {
	cpu        time.Duration // user+sys
	allocBytes float64
	gcCPU      float64 // seconds
	gcCycles   float64
	gcPauses   *metrics.Float64Histogram
	steal      float64 // the host's CPU time: stolen by the hypervisor, and all
	hostTotal  float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSnap {
	ps := procSnap{cpu: processCPU()}
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	ps.allocBytes = sampleFloat(ss[0])
	ps.gcCPU = sampleFloat(ss[1])
	ps.gcCycles = sampleFloat(ss[2])
	if ss[3].Value.Kind() == metrics.KindFloat64Histogram {
		h := ss[3].Value.Float64Histogram()
		ps.gcPauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	ps.steal, ps.hostTotal = hostCPU()
	return ps
}

// hostCPU reads the machine's CPU time from /proc/stat, in ticks: the
// part the hypervisor gave to other guests (steal) and the total. Both
// are 0 where the file is missing.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 { // guest time is already counted in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// maxPauseMS is the upper edge of the highest GC-pause bucket that
// gained a sample between a and b.
func maxPauseMS(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil {
		return 0
	}
	for i := len(b.Counts) - 1; i >= 0; i-- {
		if b.Counts[i] > a.Counts[i] {
			edge := b.Buckets[i+1]
			if edge > 1e9 { // +Inf: report the lower edge
				edge = b.Buckets[i]
			}
			return edge * 1000
		}
	}
	return 0
}

// rssBytes reads the process's resident set size; 0 where
// /proc/self/statm is missing.
func rssBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize())
}

// dirMB sums the sizes of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	// Entries that vanish or cannot be read count as empty.
	_ = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}
