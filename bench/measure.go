package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

var epoch = time.Now()

// nanos is the monotonic clock every stamp of the benchmark is read from.
func nanos() int64 { return int64(time.Since(epoch)) }

// cpuNanos is the user plus system CPU time the process has used.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pacer is the open-loop schedule: trace i is due at t0 + i/rate. It sleeps
// until a trace is due, never spins, and never skips: after a stall the
// overdue traces go out back to back. Rate 0 is the closed loop: every trace
// is due when the previous emit returns, and the clock is read once per
// stampEvery traces so that the stamp costs the saturated run nothing.
type pacer struct {
	rate  float64
	now   func() int64
	sleep func(time.Duration)

	t0   int64
	last int64
}

const stampEvery = 64

func newPacer(rate float64) *pacer {
	return &pacer{rate: rate, now: nanos, sleep: time.Sleep}
}

func (p *pacer) start() { p.t0 = p.now(); p.last = p.t0 }

func (p *pacer) due(i int) int64 { return p.t0 + int64(float64(i)*1e9/p.rate) }

// wait blocks until trace i is due and returns when it was due and when it
// is sent.
func (p *pacer) wait(i int) (due, sent int64) {
	if p.rate == 0 {
		if i%stampEvery == 0 {
			p.last = p.now()
		}
		return p.last, p.last
	}
	due = p.due(i)
	sent = p.now()
	for sent < due {
		p.sleep(time.Duration(due - sent))
		sent = p.now()
	}
	return due, sent
}

// emitLog keeps, per trace, when it was due and how late it went out.
type emitLog struct {
	due      []int64
	late     []int64 // sent − due
	first    int64   // first emit
	firstCPU int64   // process CPU time at the first emit
}

func newEmitLog(n int) *emitLog {
	return &emitLog{due: make([]int64, n), late: make([]int64, n)}
}

func (l *emitLog) record(i int, due, sent int64) {
	if i == 0 {
		l.first, l.firstCPU = sent, cpuNanos()
	}
	l.due[i], l.late[i] = due, sent-due
}

// sample is one detection: the trace that triggered it and when the engine
// emitted it.
type sample struct {
	trace int32
	at    int64
}

// recorder collects one engine's detections; only that engine's executor
// goroutine writes it, and it is read after the run.
type recorder struct {
	samples    []sample
	unresolved int
}

// latencies turns samples into detection latencies in ms, timed from when the
// triggering trace was due, in order of emission. Samples emitted before
// cutoff are warm-up and dropped.
func latencies(recs []*recorder, due []int64, cutoff int64) (at []int64, ms []float64) {
	var all []sample
	for _, r := range recs {
		all = append(all, r.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, s := range all {
		if s.at < cutoff {
			continue
		}
		at = append(at, s.at)
		ms = append(ms, float64(s.at-due[s.trace])/1e6)
	}
	return at, ms
}

// percentile returns the q-quantile of sorted (nearest rank) and whether at
// least minBeyond samples lie beyond it, which is what makes a tail
// percentile more than one outlier's value.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], len(sorted)-rank >= minBeyond
}

const minBeyond = 10

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sliceQuantiles cuts the interval [from, to) into k equal time slices and
// returns each slice's q-quantile of the latencies emitted in it. Slices
// with too few samples for the quantile are left out.
func sliceQuantiles(at []int64, ms []float64, from, to int64, k int, q float64) []float64 {
	buckets := make([][]float64, k)
	for i, t := range at {
		b := int(float64(t-from) / float64(to-from) * float64(k))
		if b < 0 || b >= k {
			continue
		}
		buckets[b] = append(buckets[b], ms[i])
	}
	out := make([]float64, 0, k)
	for _, b := range buckets {
		sort.Float64s(b)
		if v, ok := percentile(b, q); ok {
			out = append(out, v)
		}
	}
	return out
}
