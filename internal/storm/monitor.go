package storm

import (
	"sort"
	"time"

	"trafficcep/internal/telemetry"
)

// Monitor is the runtime's view of its counters: whole-run totals per
// component (TotalsByComponent, Runtime.FaultTotals) and, as a
// telemetry.Source, the same counters published into a registry. The §5
// "extra monitor thread per worker processor" is the telemetry exporter
// over that registry: each export window's rate of storm.<comp>.executed is
// the component's throughput, and the rate of storm.<comp>.proc_ns over it
// the window's mean per-tuple latency. Every reader sums the task counters
// through one pass, runningComponent.counts.
type Monitor struct {
	r   *Runtime
	ids []string // component ids, sorted once for TotalsByComponent
}

func newMonitor(r *Runtime) *Monitor {
	ids := make([]string, 0, len(r.comps))
	for id := range r.comps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return &Monitor{r: r, ids: ids}
}

// componentCounters is one component's counters, its tasks' summed. dropped
// is every tuple the component lost: envelopes its tasks skipped (failed,
// quarantined or reported), tuples dropped at routing to it, and anchored
// tuples that expired after MaxRetries.
type componentCounters struct {
	executed, emitted, errors, dropped, procNanos              uint64
	panics, replays, acked, quarantined, missingField, batches uint64
}

// counts reads rc's counters in one pass over its tasks.
func (rc *runningComponent) counts() componentCounters {
	c := componentCounters{
		dropped:      rc.dropped.Load() + rc.expired.Load(),
		panics:       rc.panics.Load(),
		replays:      rc.replays.Load(),
		acked:        rc.acked.Load(),
		quarantined:  rc.quarantinedN.Load(),
		missingField: rc.missingField.Load(),
		batches:      rc.batchesIn.Load(),
	}
	for _, ts := range rc.tasks {
		c.executed += ts.executed.Load()
		c.emitted += ts.emitted.Load()
		c.errors += ts.errors.Load()
		c.dropped += ts.dropped.Load()
		c.procNanos += ts.procNanos.Load()
	}
	return c
}

// Describe implements telemetry.Source.
func (m *Monitor) Describe() string {
	return "storm runtime: per-component task counters (" + m.r.topo.Name + ")"
}

// Collect implements telemetry.Source: it publishes every component's
// absolute counters under storm.<component>.*, among them proc_ns, the
// processing time its tasks spent, so that proc_ns/executed is the mean
// per-tuple latency over any window. Fault counters (panics, replays,
// acked, dropped, quarantined, missing_field) are published only once
// non-zero, so a clean run's registry stays free of fault noise.
func (m *Monitor) Collect(reg *telemetry.Registry) {
	for id, rc := range m.r.comps {
		c := rc.counts()
		prefix := "storm." + id + "."
		reg.Counter(prefix + "executed").Store(c.executed)
		reg.Counter(prefix + "emitted").Store(c.emitted)
		reg.Counter(prefix + "errors").Store(c.errors)
		reg.Counter(prefix + "proc_ns").Store(c.procNanos)
		for name, v := range map[string]uint64{
			"dropped":       c.dropped,
			"panics":        c.panics,
			"replays":       c.replays,
			"acked":         c.acked,
			"quarantined":   c.quarantined,
			"missing_field": c.missingField,
			// Transport batches delivered to this component; executed/batches
			// is the average batch fill, making batching efficacy observable.
			"batches": c.batches,
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

// TotalsByComponent returns each component's whole-run counters, sorted by
// component id, for end-of-run summaries.
func (m *Monitor) TotalsByComponent() []ComponentTotal {
	out := make([]ComponentTotal, len(m.ids))
	for i, id := range m.ids {
		c := m.r.comps[id].counts()
		out[i] = ComponentTotal{Component: id, Executed: c.executed, Emitted: c.emitted, Errors: c.errors, Dropped: c.dropped}
		if c.executed > 0 {
			out[i].AvgLatency = time.Duration(c.procNanos / c.executed)
		}
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
