package storm

import (
	"sort"
	"sync"
	"time"

	"trafficcep/internal/telemetry"
)

// Monitor is the "extra monitor thread per worker processor" of §5: it
// periodically samples every task's counters, computes the per-window delta,
// and aggregates per component the two metrics the paper reports — window
// throughput (tuples processed in the window) and average per-tuple latency.
// The aggregation step plays the role of the Nimbus-side merge.
type Monitor struct {
	r        *Runtime
	interval time.Duration

	mu     sync.Mutex
	prev   map[string][]TaskMetrics
	prevAt time.Time
	subs   []func(Report)

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// TaskWindow is one task's delta within a report window.
type TaskWindow struct {
	TaskID     int
	Executed   uint64
	Emitted    uint64
	Errors     uint64
	Dropped    uint64
	AvgLatency time.Duration
}

// ComponentStats aggregates a component's tasks over one window.
type ComponentStats struct {
	Executed    uint64
	Emitted     uint64
	Errors      uint64
	Dropped     uint64
	Quarantined uint64  // tasks quarantined so far (absolute, not a delta)
	Throughput  float64 // tuples per second over the window
	AvgLatency  time.Duration
	Tasks       []TaskWindow
}

// Report is one monitoring window across all components.
type Report struct {
	At         time.Time
	Window     time.Duration
	Components map[string]ComponentStats
}

func newMonitor(r *Runtime, interval time.Duration) *Monitor {
	return &Monitor{
		r:        r,
		interval: interval,
		prev:     r.taskMetricsSnapshot(),
		prevAt:   time.Now(),
		stopCh:   make(chan struct{}),
	}
}

// Subscribe registers a callback invoked for every report. Must be called
// before the runtime starts.
func (m *Monitor) Subscribe(f func(Report)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, f)
}

func (m *Monitor) start() {
	if m.interval <= 0 {
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.SnapshotNow()
			case <-m.stopCh:
				return
			}
		}
	}()
}

func (m *Monitor) stop() {
	if m.interval > 0 {
		close(m.stopCh)
		m.wg.Wait()
	}
}

// SnapshotNow samples all counters, builds the report for the window since
// the previous snapshot, and hands it to every subscriber.
func (m *Monitor) SnapshotNow() Report {
	now := time.Now()
	cur := m.r.taskMetricsSnapshot()

	m.mu.Lock()
	window := now.Sub(m.prevAt)
	if window <= 0 {
		window = time.Nanosecond
	}
	rep := Report{At: now, Window: window, Components: make(map[string]ComponentStats, len(cur))}
	for id, tasks := range cur {
		prev := m.prev[id]
		cs := ComponentStats{}
		for i, tm := range tasks {
			var p TaskMetrics
			if i < len(prev) {
				p = prev[i]
			}
			tw := TaskWindow{
				TaskID:   m.r.comps[id].tasks[i].ctx.TaskID,
				Executed: tm.Executed - p.Executed,
				Emitted:  tm.Emitted - p.Emitted,
				Errors:   tm.Errors - p.Errors,
				Dropped:  tm.Dropped - p.Dropped,
			}
			if tw.Executed > 0 {
				tw.AvgLatency = time.Duration((tm.ProcNanos - p.ProcNanos) / tw.Executed)
			}
			cs.Executed += tw.Executed
			cs.Emitted += tw.Emitted
			cs.Errors += tw.Errors
			cs.Dropped += tw.Dropped
			cs.Tasks = append(cs.Tasks, tw)
		}
		cs.Quarantined = m.r.comps[id].quarantinedN.Load()
		var totalNanos uint64
		for i, tm := range tasks {
			var p TaskMetrics
			if i < len(prev) {
				p = prev[i]
			}
			totalNanos += tm.ProcNanos - p.ProcNanos
		}
		if cs.Executed > 0 {
			cs.AvgLatency = time.Duration(totalNanos / cs.Executed)
		}
		cs.Throughput = float64(cs.Executed) / window.Seconds()
		rep.Components[id] = cs
	}
	m.prev = cur
	m.prevAt = now
	subs := append([]func(Report){}, m.subs...)
	m.mu.Unlock()

	for _, f := range subs {
		f(rep)
	}
	return rep
}

// Describe implements telemetry.Source.
func (m *Monitor) Describe() string {
	return "storm runtime: per-component task counters (" + m.r.topo.Name + ")"
}

// Collect implements telemetry.Source: it publishes every component's
// absolute counters plus a mean processing-latency gauge under
// storm.<component>.*. Combined with the runtime's hop/end-to-end
// histograms this makes one registry walk the complete replacement for
// TaskMetricsSnapshot. Fault counters (panics, replays, acked, dropped,
// quarantined, missing_field) are published only once non-zero, so a clean
// run's registry stays free of fault noise.
func (m *Monitor) Collect(reg *telemetry.Registry) {
	for id, rc := range m.r.comps {
		var executed, emitted, errors, dropped, nanos uint64
		for _, ts := range rc.tasks {
			tm := ts.metrics()
			executed += tm.Executed
			emitted += tm.Emitted
			errors += tm.Errors
			dropped += tm.Dropped
			nanos += tm.ProcNanos
		}
		dropped += rc.dropped.Load() + rc.expired.Load()
		prefix := "storm." + id + "."
		reg.Counter(prefix + "executed").Store(executed)
		reg.Counter(prefix + "emitted").Store(emitted)
		reg.Counter(prefix + "errors").Store(errors)
		if executed > 0 {
			reg.Gauge(prefix + "proc_latency_ns").Set(float64(nanos) / float64(executed))
		}
		for name, v := range map[string]uint64{
			"dropped":       dropped,
			"panics":        rc.panics.Load(),
			"replays":       rc.replays.Load(),
			"acked":         rc.acked.Load(),
			"quarantined":   rc.quarantinedN.Load(),
			"missing_field": rc.missingField.Load(),
			// Transport batches delivered to this component; executed/batches
			// is the average batch fill, making batching efficacy observable.
			"batches": rc.batchesIn.Load(),
		} {
			if v > 0 {
				reg.Counter(prefix + name).Store(v)
			}
		}
	}
	if ak := m.r.acker; ak != nil {
		// In-flight anchored roots awaiting their checksum to return to
		// zero; a persistently growing value means acks are not keeping up
		// with anchored emissions.
		reg.Gauge("storm.acker.pending").Set(float64(ak.pendingRoots()))
	}
}

// TotalsByComponent aggregates absolute counters per component (not window
// deltas), sorted by component id, for end-of-run summaries.
func (m *Monitor) TotalsByComponent() []ComponentTotal {
	cur := m.r.taskMetricsSnapshot()
	ids := make([]string, 0, len(cur))
	for id := range cur {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]ComponentTotal, 0, len(ids))
	for _, id := range ids {
		t := ComponentTotal{Component: id}
		var nanos uint64
		for _, tm := range cur[id] {
			t.Executed += tm.Executed
			t.Emitted += tm.Emitted
			t.Errors += tm.Errors
			t.Dropped += tm.Dropped
			nanos += tm.ProcNanos
		}
		rc := m.r.comps[id]
		t.Dropped += rc.dropped.Load() + rc.expired.Load()
		if t.Executed > 0 {
			t.AvgLatency = time.Duration(nanos / t.Executed)
		}
		out = append(out, t)
	}
	return out
}

// ComponentTotal is a component's whole-run counter summary.
type ComponentTotal struct {
	Component  string
	Executed   uint64
	Emitted    uint64
	Errors     uint64
	Dropped    uint64
	AvgLatency time.Duration
}
