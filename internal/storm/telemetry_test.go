package storm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficcep/internal/telemetry"
)

// TestTracingRecordsHopAndEndToEnd runs a linear pipeline with telemetry,
// per-tuple and batched, with one erroring and one panicking envelope at
// mid under Degrade. Every executed envelope — failed ones included —
// leaves exactly one hop-latency observation at its bolt, only the sink
// records end-to-end latency, and the trace context rides the tuples.
func TestTracingRecordsHopAndEndToEnd(t *testing.T) {
	const n = 100
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			mu, got, _, sink := newSink()
			b := NewTopologyBuilder("t")
			b.SetSpout("src", func() Spout { return &seqSpout{n: n, keys: 5} }, 1, 1)
			b.SetBolt("mid", func() Bolt {
				return &funcBolt{exec: func(tp Tuple, col Collector) error {
					switch tp.Values["i"] {
					case 3:
						return fmt.Errorf("mid failed")
					case 4:
						panic("mid panicked")
					}
					col.Emit(tp.Values)
					return nil
				}}
			}, 2, 2).ShuffleGrouping("src")
			b.SetBolt("sink", sink, 1, 1).ShuffleGrouping("mid")
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(topo, WithTelemetry(reg), WithBatchSize(batch), WithFailurePolicy(Degrade))
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}

			for comp, want := range map[string]uint64{"mid": n, "sink": n - 2} {
				var executed uint64
				for _, ts := range rt.comps[comp].tasks {
					executed += ts.executed.Load()
				}
				if executed != want {
					t.Fatalf("%s executed = %d, want %d", comp, executed, want)
				}
				if h := reg.Histogram("storm." + comp + ".hop_latency_ns").Count(); h != executed {
					t.Fatalf("%s hop observations = %d, want one per executed envelope (%d)", comp, h, executed)
				}
			}
			if h := reg.Histogram("storm.sink.e2e_latency_ns").Count(); h != n-2 {
				t.Fatalf("sink end-to-end observations = %d, want %d", h, n-2)
			}
			if ft := rt.FaultTotals(); ft.Panics != 1 {
				t.Fatalf("panics = %d, want 1", ft.Panics)
			}
			// mid has subscribers, so it must not record end-to-end latency.
			snap := reg.Snapshot()
			if _, ok := snap.Get("storm.mid.e2e_latency_ns"); ok {
				t.Fatal("non-sink component must not have an e2e histogram")
			}

			mu.Lock()
			defer mu.Unlock()
			for _, tp := range *got {
				if !tp.Trace.Active() {
					t.Fatal("sink tuple without an active trace")
				}
				if tp.Trace.Hops != 1 {
					t.Fatalf("hops = %d, want 1 (spout emit + mid re-emit)", tp.Trace.Hops)
				}
				if tp.Trace.EmitNanos < tp.Trace.StartNanos {
					t.Fatalf("emit %d before start %d", tp.Trace.EmitNanos, tp.Trace.StartNanos)
				}
			}

			// One registry walk surfaces the monitor's counters too.
			gathered := rt.Monitor()
			gathered.Collect(reg)
			if m, ok := reg.Snapshot().Get("storm.sink.executed"); !ok || m.Value != n-2 {
				t.Fatalf("storm.sink.executed = %+v, %v", m, ok)
			}
		})
	}
}

// TestTracingDisabledZeroCost: without a registry the tuples carry no trace
// at all (the zero value), so the hot path never reads the clock for tracing.
func TestTracingDisabledZeroCost(t *testing.T) {
	mu, got, _, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 20, keys: 2} }, 1, 1)
	b.SetBolt("sink", sink, 1, 1).ShuffleGrouping("src")
	runSimple(t, b)
	mu.Lock()
	defer mu.Unlock()
	for _, tp := range *got {
		if tp.Trace.Active() {
			t.Fatal("tracing must be off without a telemetry registry")
		}
	}
}

// TestTracingFanOutReplicates: under all-grouping each replica is its own
// delivery, so hop and end-to-end observations count replicas — and the
// value-type trace means replicas cannot race on shared state (run with
// -race).
func TestTracingFanOutReplicates(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, _, _, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 50, keys: 5} }, 1, 1)
	b.SetBolt("sink", sink, 3, 3).AllGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := reg.Histogram("storm.sink.hop_latency_ns").Count(); n != 150 {
		t.Fatalf("hop observations = %d, want 150 (3 replicas of 50)", n)
	}
	if n := reg.Histogram("storm.sink.e2e_latency_ns").Count(); n != 150 {
		t.Fatalf("e2e observations = %d, want 150", n)
	}
}

// TestMonitorSubscribeConcurrentSnapshots runs a topology while several
// goroutines force monitor snapshots, with multiple subscribers registered.
// Every subscriber must see every report, and the sequential windows must
// account for exactly the tuples executed (no double counting under
// concurrency; run with -race for the data-race proof).
func TestMonitorSubscribeConcurrentSnapshots(t *testing.T) {
	const tuples = 2000
	var delivered atomic.Int64
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: tuples, keys: 7} }, 1, 1)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			delivered.Add(1)
			return nil
		}}
	}, 2, 2).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithMonitorInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	const subscribers = 4
	var seen [subscribers]atomic.Int64
	for i := 0; i < subscribers; i++ {
		i := i
		rt.Monitor().Subscribe(func(Report) { seen[i].Add(1) })
	}

	done := make(chan struct{})
	var snappers sync.WaitGroup
	for i := 0; i < 3; i++ {
		snappers.Add(1)
		go func() {
			defer snappers.Done()
			for {
				select {
				case <-done:
					return
				default:
					rt.Monitor().SnapshotNow()
				}
			}
		}()
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	close(done)
	snappers.Wait()
	rt.Monitor().SnapshotNow() // flush the final window

	if delivered.Load() != tuples {
		t.Fatalf("delivered = %d, want %d", delivered.Load(), tuples)
	}
	reports := rt.Monitor().Reports()
	if len(reports) == 0 {
		t.Fatal("no reports recorded")
	}
	var windowed uint64
	for _, rep := range reports {
		windowed += rep.Components["sink"].Executed
	}
	if windowed != tuples {
		t.Fatalf("windows sum to %d executed, want %d", windowed, tuples)
	}
	for i := 0; i < subscribers; i++ {
		if got := seen[i].Load(); got != int64(len(reports)) {
			t.Fatalf("subscriber %d saw %d reports, want %d", i, got, len(reports))
		}
	}
}

// TestNewOptions checks that the functional options reach the Config.
func TestNewOptions(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("esper", func() Bolt { return &passBolt{} }, 6, 6).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo,
		withChannelBuffer(8),
		WithMonitorInterval(0),
		WithTelemetry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rt.cfg.ChannelBuffer != 8 {
		t.Fatalf("ChannelBuffer = %d, want 8 (withChannelBuffer not applied)", rt.cfg.ChannelBuffer)
	}
	if !rt.tracing {
		t.Fatal("WithTelemetry must enable tracing")
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
