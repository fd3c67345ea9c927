package storm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/telemetry"
)

// TestFaultCountersOneAnswer: the registry's storm.<comp>.* counters,
// TotalsByComponent and FaultTotals are one reading of the same counters,
// after a Degrade run that quarantines a task, a run that drops tuples at
// routing to a direct target that does not exist, and an XOR-acked run in
// which an anchor expires after MaxRetries. Per component, every published
// counter equals its TotalsByComponent field (dropped included: task drops,
// routing drops and expired anchors alike) and proc_ns/executed is the
// AvgLatency; summed over components the fault counters are FaultTotals.
// While each run flows a goroutine reads the totals and gathers the
// registry, for -race.
func TestFaultCountersOneAnswer(t *testing.T) {
	quarantine := func() (*Topology, []Option) {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &seqSpout{n: 200, keys: 4} }, 1, 1)
		b.SetBolt("flaky", func() Bolt {
			return &taskBolt{exec: func(ctx TaskContext, _ Tuple, _ Collector) error {
				if ctx.TaskIndex == 0 {
					return fmt.Errorf("task 0 is broken")
				}
				return nil
			}}
		}, 2, 2).ShuffleGrouping("src")
		return mustBuild(t, b), []Option{WithFailurePolicy(Degrade), withQuarantineAfter(3)}
	}
	deadDirect := func() (*Topology, []Option) {
		_, _, _, sink := newSink()
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &oorSpout{n: 30} }, 1, 1)
		b.SetBolt("sink", sink, 3, 3).StreamGrouping("src", "routed", DirectGrouping)
		return mustBuild(t, b), []Option{WithFailurePolicy(Degrade)}
	}
	expiry := func() (*Topology, []Option) {
		b := NewTopologyBuilder("t")
		spout := newAckSpout(10)
		b.SetSpout("src", func() Spout { return spout }, 1, 1)
		b.SetBolt("sink", func() Bolt {
			return &funcBolt{exec: func(tp Tuple, _ Collector) error {
				if tp.Values["i"] == 7 {
					return fmt.Errorf("permanently poisoned")
				}
				return nil
			}}
		}, 1, 1).ShuffleGrouping("src")
		return mustBuild(t, b), []Option{
			WithAckTimeout(10 * time.Millisecond), WithMaxRetries(2),
			WithFailurePolicy(Degrade), withQuarantineAfter(1000),
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*Topology, []Option)
		want  FaultTotals // the fault the run must show
	}{
		{"quarantine", quarantine, FaultTotals{Quarantined: 1}},
		{"deadDirectTarget", deadDirect, FaultTotals{Dropped: 10}},
		{"expiredAnchor", expiry, FaultTotals{Replays: 2, Dropped: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo, opts := tc.build()
			reg := telemetry.NewRegistry()
			rt, err := New(topo, append(opts, WithTelemetry(reg))...)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-done:
						return
					default:
						rt.Monitor().TotalsByComponent()
						reg.Gather()
						time.Sleep(50 * time.Microsecond)
					}
				}
			}()
			runErr := rt.Run()
			close(done)
			reader.Wait()
			if runErr != nil {
				t.Fatal(runErr)
			}

			totals := map[string]ComponentTotal{}
			for _, tot := range rt.Monitor().TotalsByComponent() {
				totals[tot.Component] = tot
			}
			snap := reg.Gather()
			var summed FaultTotals
			faults := map[string]*uint64{
				"panics": &summed.Panics, "replays": &summed.Replays, "acked": &summed.Acked,
				"dropped": &summed.Dropped, "quarantined": &summed.Quarantined,
				"missing_field": &summed.MissingField,
			}
			procNs := map[string]uint64{}
			for _, m := range snap.Metrics {
				if m.Kind != telemetry.KindCounter || !strings.HasPrefix(m.Name, "storm.") {
					continue
				}
				comp, field, _ := strings.Cut(strings.TrimPrefix(m.Name, "storm."), ".")
				tot, ok := totals[comp]
				if !ok {
					t.Fatalf("%s: no totals for component %q", m.Name, comp)
				}
				v := uint64(m.Value)
				if sum, ok := faults[field]; ok {
					*sum += v
				}
				want, ok := map[string]uint64{
					"executed": tot.Executed, "emitted": tot.Emitted,
					"errors": tot.Errors, "dropped": tot.Dropped,
				}[field]
				switch {
				case ok && v != want:
					t.Fatalf("%s = %d, TotalsByComponent says %d", m.Name, v, want)
				case field == "proc_ns":
					procNs[comp] = v
				case !ok && faults[field] == nil && field != "batches":
					t.Fatalf("%s: counter not covered by this test", m.Name)
				}
			}
			for comp, tot := range totals {
				if tot.Dropped > 0 {
					if _, ok := snap.Get("storm." + comp + ".dropped"); !ok {
						t.Fatalf("%s dropped %d, but storm.%s.dropped is not published", comp, tot.Dropped, comp)
					}
				}
				ns, ok := procNs[comp]
				if !ok {
					t.Fatalf("storm.%s.proc_ns is not published", comp)
				}
				if tot.Executed > 0 && time.Duration(ns/tot.Executed) != tot.AvgLatency {
					t.Fatalf("%s: proc_ns %d / executed %d != AvgLatency %v", comp, ns, tot.Executed, tot.AvgLatency)
				}
			}
			ft := rt.FaultTotals()
			if summed != ft {
				t.Fatalf("published fault counters sum to %+v, FaultTotals is %+v", summed, ft)
			}
			if (tc.want.Quarantined > 0 && ft.Quarantined != tc.want.Quarantined) ||
				(tc.want.Replays > 0 && ft.Replays != tc.want.Replays) ||
				ft.Dropped < tc.want.Dropped {
				t.Fatalf("FaultTotals = %+v, want the run's fault %+v", ft, tc.want)
			}
		})
	}
}

func mustBuild(t *testing.T, b *TopologyBuilder) *Topology {
	t.Helper()
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}
