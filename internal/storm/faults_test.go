package storm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/telemetry"
)

// taskBolt gives tests per-task behavior: exec sees the task context.
type taskBolt struct {
	ctx  TaskContext
	exec func(TaskContext, Tuple, Collector) error
}

func (b *taskBolt) Prepare(ctx TaskContext) error { b.ctx = ctx; return nil }
func (b *taskBolt) Execute(t Tuple, col Collector) error {
	return b.exec(b.ctx, t, col)
}
func (b *taskBolt) Cleanup() error { return nil }

// panicBolt panics on tuples selected by hit, forwards the rest.
type panicBolt struct {
	hit func(Tuple) bool
}

func (b *panicBolt) Prepare(TaskContext) error { return nil }
func (b *panicBolt) Execute(t Tuple, col Collector) error {
	if b.hit(t) {
		panic(fmt.Sprintf("poisoned tuple %v", t.Values["i"]))
	}
	col.Emit(t.Values)
	return nil
}
func (b *panicBolt) Cleanup() error { return nil }

// figure8 builds the Figure 8 pipeline shape (BusReader → PreProcess →
// AreaTracker → BusStopsTracker → Splitter → Esper → Storer) with the esper
// stage supplied by the test.
func figure8(n int, esper BoltFactory, sink BoltFactory) *TopologyBuilder {
	b := NewTopologyBuilder("figure8")
	b.SetSpout("busreader", func() Spout { return &seqSpout{n: n, keys: 16} }, 1, 1)
	b.SetBolt("preprocess", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("busreader")
	b.SetBolt("areatracker", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("preprocess")
	b.SetBolt("busstops", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("areatracker")
	b.SetBolt("splitter", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("busstops")
	b.SetBolt("esper", esper, 2, 2).FieldsGrouping("splitter", "key")
	b.SetBolt("storer", sink, 1, 1).ShuffleGrouping("esper")
	return b
}

// edgeReconciles asserts the delivery accounting between two adjacent
// components: every tuple the upstream emitted or the acker replayed from
// it is either executed by the downstream or counted as dropped (at a task
// or at routing).
func edgeReconciles(t *testing.T, rt *Runtime, up, down string) {
	t.Helper()
	emitted := rt.comps[up].replays.Load()
	var executed, dropped uint64
	for _, ts := range rt.comps[up].tasks {
		emitted += ts.emitted.Load()
	}
	dc := rt.comps[down]
	for _, ts := range dc.tasks {
		executed += ts.executed.Load()
		dropped += ts.dropped.Load()
	}
	dropped += dc.dropped.Load()
	if emitted != executed+dropped {
		t.Fatalf("edge %s→%s: emitted %d != executed %d + dropped %d", up, down, emitted, executed, dropped)
	}
}

// TestFaultPanicIsolationFailFast: a panicking Execute must not crash the
// process; under FailFast it surfaces as a *PanicError from Run while the
// rest of the wave still drains.
func TestFaultPanicIsolationFailFast(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 10, keys: 2} }, 1, 1)
	b.SetBolt("boom", func() Bolt {
		return &panicBolt{hit: func(tp Tuple) bool { return tp.Values["i"] == 3 }}
	}, 1, 1).ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			mu.Lock()
			delivered++
			mu.Unlock()
			return nil
		}}
	}, 1, 1).ShuffleGrouping("boom")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Component != "boom" || pe.Op != "Execute" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
	if delivered != 9 {
		t.Fatalf("delivered = %d, want 9 (all but the poisoned tuple)", delivered)
	}
	if ft := rt.FaultTotals(); ft.Panics != 1 {
		t.Fatalf("panics = %d, want 1", ft.Panics)
	}
	edgeReconciles(t, rt, "src", "boom")
	edgeReconciles(t, rt, "boom", "sink")
}

// TestFaultPanicDegradeFigure8 is the acceptance scenario: a bolt that
// panics on 1% of tuples completes the Figure 8 run under Degrade, the
// panics land in telemetry, and no tuple is unaccounted for on any edge.
func TestFaultPanicDegradeFigure8(t *testing.T) {
	const n = 1000
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	stored := 0
	esper := func() Bolt {
		return &panicBolt{hit: func(tp Tuple) bool { return tp.Values["i"].(int)%100 == 0 }}
	}
	sink := func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			mu.Lock()
			stored++
			mu.Unlock()
			return nil
		}}
	}
	topo, err := figure8(n, esper, sink).Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithTelemetry(reg), WithFailurePolicy(Degrade))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Degrade run must absorb panics, got %v", err)
	}
	ft := rt.FaultTotals()
	if ft.Panics != n/100 {
		t.Fatalf("panics = %d, want %d", ft.Panics, n/100)
	}
	if ft.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0 (1%% panic rate never hits %d consecutive)", ft.Quarantined, rt.quarK)
	}
	if stored != n-n/100 {
		t.Fatalf("stored = %d, want %d", stored, n-n/100)
	}
	chain := []string{"busreader", "preprocess", "areatracker", "busstops", "splitter", "esper", "storer"}
	for i := 0; i < len(chain)-1; i++ {
		edgeReconciles(t, rt, chain[i], chain[i+1])
	}
	rt.Monitor().Collect(reg)
	if m, ok := reg.Snapshot().Get("storm.esper.panics"); !ok || m.Value != float64(n/100) {
		t.Fatalf("storm.esper.panics = %+v, %v", m, ok)
	}
}

// TestQuarantineDegradeRoutesAround: a task failing every tuple is
// quarantined after QuarantineAfter consecutive errors; its queued envelopes
// are counted as dropped and new tuples route to the healthy replica.
func TestQuarantineDegradeRoutesAround(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	byTask := map[int]int{}
	flaky := func() Bolt {
		return &taskBolt{exec: func(ctx TaskContext, tp Tuple, _ Collector) error {
			if ctx.TaskIndex == 0 {
				return fmt.Errorf("task 0 is broken")
			}
			mu.Lock()
			byTask[ctx.TaskIndex]++
			mu.Unlock()
			return nil
		}}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: n, keys: 4} }, 1, 1)
	b.SetBolt("flaky", flaky, 2, 2).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithFailurePolicy(Degrade), withQuarantineAfter(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Degrade run failed: %v", err)
	}
	ft := rt.FaultTotals()
	if ft.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", ft.Quarantined)
	}
	if byTask[1] < n/2 {
		t.Fatalf("healthy task got %d tuples, want ≥ %d (routing must avoid the quarantined task)", byTask[1], n/2)
	}
	edgeReconciles(t, rt, "src", "flaky")
	rep := rt.Monitor().SnapshotNow()
	if rep.Components["flaky"].Quarantined != 1 {
		t.Fatalf("monitor quarantined = %d, want 1", rep.Components["flaky"].Quarantined)
	}
}

// TestFaultSpoutPanicQuarantine: a spout whose NextTuple always panics is
// quarantined (and its task deactivated) under Degrade instead of spinning
// or failing the run.
func TestFaultSpoutPanicQuarantine(t *testing.T) {
	boom := func() Spout { return panicSpout{} }
	b := NewTopologyBuilder("t")
	b.SetSpout("src", boom, 1, 1)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error { return nil }}
	}, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithFailurePolicy(Degrade), withQuarantineAfter(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Degrade run failed: %v", err)
	}
	ft := rt.FaultTotals()
	if ft.Panics != 3 || ft.Quarantined != 1 {
		t.Fatalf("panics = %d quarantined = %d, want 3 and 1", ft.Panics, ft.Quarantined)
	}
}

type panicSpout struct{}

func (panicSpout) Open(TaskContext) error { return nil }
func (panicSpout) Close() error           { return nil }
func (panicSpout) NextTuple(Collector) (bool, error) {
	panic("spout meltdown")
}

// ackSpout emits n anchored tuples and records the Ack/Fail callbacks.
type ackSpout struct {
	n, i int

	mu     sync.Mutex
	acked  map[string]int
	failed map[string]int
}

func (s *ackSpout) Open(TaskContext) error { return nil }
func (s *ackSpout) Close() error           { return nil }
func (s *ackSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	vals := map[string]any{"i": s.i, "key": s.i % 4}
	if ac, ok := col.(AnchorCollector); ok && ac.Acking() {
		ac.EmitAnchored(strconv.Itoa(s.i), vals)
	} else {
		col.Emit(vals)
	}
	s.i++
	return s.i < s.n, nil
}
func (s *ackSpout) Ack(msgID string) {
	s.mu.Lock()
	s.acked[msgID]++
	s.mu.Unlock()
}
func (s *ackSpout) Fail(msgID string) {
	s.mu.Lock()
	s.failed[msgID]++
	s.mu.Unlock()
}

func newAckSpout(n int) *ackSpout {
	return &ackSpout{n: n, acked: map[string]int{}, failed: map[string]int{}}
}

// TestAckReplayDeliversAfterFailure: a bolt failing the first attempt of
// every tuple forces a replay of each; with ack tracking on, every message
// id is eventually acked and the replays are counted.
func TestAckReplayDeliversAfterFailure(t *testing.T) {
	const n = 20
	spout := newAckSpout(n)
	var mu sync.Mutex
	attempts := map[any]int{}
	flaky := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, _ Collector) error {
			mu.Lock()
			attempts[tp.Values["i"]]++
			first := attempts[tp.Values["i"]] == 1
			mu.Unlock()
			if first {
				return fmt.Errorf("transient failure")
			}
			return nil
		}}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return spout }, 1, 1)
	b.SetBolt("flaky", flaky, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo,
		WithAckTimeout(20*time.Millisecond),
		WithMaxRetries(5),
		WithFailurePolicy(Degrade),
		withQuarantineAfter(1000), // transient failures must not quarantine
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	spout.mu.Lock()
	defer spout.mu.Unlock()
	if len(spout.acked) != n {
		t.Fatalf("acked %d message ids, want %d (failed: %v)", len(spout.acked), n, spout.failed)
	}
	if len(spout.failed) != 0 {
		t.Fatalf("failed callbacks for %v, want none", spout.failed)
	}
	ft := rt.FaultTotals()
	if ft.Acked != n {
		t.Fatalf("acked trees = %d, want %d", ft.Acked, n)
	}
	if ft.Replays < n {
		t.Fatalf("replays = %d, want ≥ %d (every tuple failed once)", ft.Replays, n)
	}
}

// TestAckExpiryDropsAfterMaxRetries: a tuple that fails on every attempt is
// replayed MaxRetries times, then expires: the spout's Fail callback fires
// and the tuple is accounted as dropped.
func TestAckExpiryDropsAfterMaxRetries(t *testing.T) {
	const n = 10
	spout := newAckSpout(n)
	poison := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, _ Collector) error {
			if tp.Values["i"] == 7 {
				return fmt.Errorf("permanently poisoned")
			}
			return nil
		}}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return spout }, 1, 1)
	b.SetBolt("sink", poison, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo,
		WithAckTimeout(10*time.Millisecond),
		WithMaxRetries(2),
		WithFailurePolicy(Degrade),
		withQuarantineAfter(1000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	spout.mu.Lock()
	defer spout.mu.Unlock()
	if len(spout.acked) != n-1 {
		t.Fatalf("acked = %d, want %d", len(spout.acked), n-1)
	}
	if spout.failed["7"] != 1 {
		t.Fatalf("failed callbacks = %v, want exactly one for msg 7", spout.failed)
	}
	ft := rt.FaultTotals()
	if ft.Replays != 2 {
		t.Fatalf("replays = %d, want 2 (MaxRetries)", ft.Replays)
	}
	if ft.Dropped == 0 {
		t.Fatal("expired tuple must be counted as dropped")
	}
}

// TestAckFailAfterEmitReplays: a call that emits and then fails — by an
// error or by a panic — must still fail its tree. Every i%5==0 tuple fails
// its first attempt and replays once; tuple 7 fails every attempt and
// expires after MaxRetries replays. Odd tuples emit twice. mid is slower
// than sink, so at batch 1 the next call ships a failed call's emissions
// while the fail update still waits in mid's ack buffer: the sink's
// updates must not drain the tree before the fail bit lands, which holds
// because the fail update also consumes mid's input edge.
func TestAckFailAfterEmitReplays(t *testing.T) {
	const n, retries = 20, 2
	fails := map[string]func(Tuple) error{
		"error": func(Tuple) error { return fmt.Errorf("failed after emitting") },
		"panic": func(tp Tuple) error { panic(fmt.Sprintf("poisoned after emitting %v", tp.Values["i"])) },
	}
	for _, tc := range []struct {
		fail  string
		batch int
	}{{"error", 1}, {"error", 64}, {"panic", 1}, {"panic", 64}} {
		t.Run(fmt.Sprintf("%s/batch=%d", tc.fail, tc.batch), func(t *testing.T) {
			spout := newAckSpout(n)
			var mu sync.Mutex
			attempts := map[int]int{}
			mid := func() Bolt {
				return &funcBolt{exec: func(tp Tuple, col Collector) error {
					time.Sleep(2 * time.Millisecond)
					i := tp.Values["i"].(int)
					mu.Lock()
					attempts[i]++
					first := attempts[i] == 1
					mu.Unlock()
					for c := 0; c < 1+i%2; c++ {
						col.Emit(map[string]any{"i": i, "copy": c})
					}
					if i == 7 || i%5 == 0 && first {
						return fails[tc.fail](tp)
					}
					return nil
				}}
			}
			b := NewTopologyBuilder("t")
			b.SetSpout("src", func() Spout { return spout }, 1, 1)
			b.SetBolt("mid", mid, 2, 2).FieldsGrouping("src", "key")
			b.SetBolt("sink", func() Bolt {
				return &funcBolt{exec: func(Tuple, Collector) error { return nil }}
			}, 1, 1).ShuffleGrouping("mid")
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(topo,
				WithAckTimeout(150*time.Millisecond),
				WithMaxRetries(retries),
				WithFailurePolicy(Degrade),
				withQuarantineAfter(1_000_000),
				WithBatchSize(tc.batch),
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			spout.mu.Lock()
			if len(spout.acked) != n-1 || spout.failed["7"] != 1 || len(spout.failed) != 1 {
				t.Errorf("acked %d ids, failed %v; want %d acked and only id 7 failed", len(spout.acked), spout.failed, n-1)
			}
			spout.mu.Unlock()
			ft := rt.FaultTotals()
			if ft.Replays != 4+retries || ft.Acked != n-1 || ft.Dropped != 1 {
				t.Errorf("replays = %d acked = %d dropped = %d, want %d, %d and 1 (4 transients, the poison's %d retries)",
					ft.Replays, ft.Acked, ft.Dropped, 4+retries, n-1, retries)
			}
			edgeReconciles(t, rt, "src", "mid")
			edgeReconciles(t, rt, "mid", "sink")
		})
	}
}

// TestFaultRunContextCancel: cancelling the context stops an endless spout
// and RunContext returns the context error after the in-flight wave drained.
func TestFaultRunContextCancel(t *testing.T) {
	var mu sync.Mutex
	delivered := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return endlessSpout{} }, 1, 1)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			mu.Lock()
			delivered++
			mu.Unlock()
			return nil
		}}
	}, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = rt.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation took far too long")
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered == 0 {
		t.Fatal("no tuples delivered before cancellation")
	}
	edgeReconciles(t, rt, "src", "sink")
}

type endlessSpout struct{}

func (endlessSpout) Open(TaskContext) error { return nil }
func (endlessSpout) Close() error           { return nil }
func (endlessSpout) NextTuple(col Collector) (bool, error) {
	col.Emit(map[string]any{"i": 0})
	return true, nil
}

// TestShuffleCounterWrapRegression seeds the round-robin counter near the
// uint64 wrap point: delivery must neither panic (the old *int counter went
// negative past 2^63) nor skew the distribution.
func TestShuffleCounterWrapRegression(t *testing.T) {
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 100, keys: 5} }, 1, 1)
	_, _, byTask, sink := newSink()
	b.SetBolt("sink", sink, 4, 4).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	src := rt.comps["src"]
	sub := src.subs[DefaultStream][0]
	src.tasks[0].shuffle[sub.idx] = math.MaxUint64 - 2 // wraps to 0 on the third emission
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for ti, c := range byTask {
		if *c != 25 {
			t.Fatalf("task %d got %d tuples, want 25 (round-robin across the wrap)", ti, *c)
		}
	}
}

// oorSpout emits every third tuple to an out-of-range direct task.
type oorSpout struct{ i, n int }

func (s *oorSpout) Open(TaskContext) error { return nil }
func (s *oorSpout) Close() error           { return nil }
func (s *oorSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	task := s.i % 3
	if task == 0 {
		task = 5 // out of range for a 3-task bolt
	}
	col.EmitDirect("routed", task, map[string]any{"i": s.i})
	s.i++
	return s.i < s.n, nil
}

// TestFaultEmitDirectOutOfRange: direct emits to a task index outside [0,n)
// are counted drops — an error under FailFast, absorbed under Degrade.
func TestFaultEmitDirectOutOfRange(t *testing.T) {
	build := func() *Topology {
		_, _, _, sink := newSink()
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &oorSpout{n: 30} }, 1, 1)
		b.SetBolt("sink", sink, 3, 3).StreamGrouping("src", "routed", DirectGrouping)
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}

	rt, err := New(build())
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want containing %q", err, "out of range")
	}
	if ft := rt.FaultTotals(); ft.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", ft.Dropped)
	}

	rt2, err := New(build(), WithFailurePolicy(Degrade))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.Run(); err != nil {
		t.Fatalf("Degrade run failed: %v", err)
	}
	if ft := rt2.FaultTotals(); ft.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", ft.Dropped)
	}
	edgeReconciles(t, rt2, "src", "sink")
}

// gapSpout emits tuples, every fourth one missing the grouping field.
type gapSpout struct{ i, n int }

func (s *gapSpout) Open(TaskContext) error { return nil }
func (s *gapSpout) Close() error           { return nil }
func (s *gapSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	vals := map[string]any{"i": s.i}
	if s.i%4 != 0 {
		vals["key"] = s.i % 7
	}
	col.Emit(vals)
	s.i++
	return s.i < s.n, nil
}

// TestFaultFieldsGroupingMissingField: tuples lacking the grouping field are
// still delivered (all funneled to one task, hashing as <nil>) and the
// malformation is counted on the emitting component.
func TestFaultFieldsGroupingMissingField(t *testing.T) {
	const n = 40
	var mu sync.Mutex
	malformedTasks := map[int]bool{}
	delivered := 0
	sink := func() Bolt {
		return &taskBolt{exec: func(ctx TaskContext, tp Tuple, _ Collector) error {
			mu.Lock()
			delivered++
			if _, ok := tp.Values["key"]; !ok {
				malformedTasks[ctx.TaskIndex] = true
			}
			mu.Unlock()
			return nil
		}}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &gapSpout{n: n} }, 1, 1)
	b.SetBolt("sink", sink, 3, 3).FieldsGrouping("src", "key")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != n {
		t.Fatalf("delivered = %d, want %d (missing fields must not drop tuples)", delivered, n)
	}
	if ft := rt.FaultTotals(); ft.MissingField != n/4 {
		t.Fatalf("missing_field = %d, want %d", ft.MissingField, n/4)
	}
	if len(malformedTasks) != 1 {
		t.Fatalf("malformed tuples reached %d tasks, want 1 (deterministic <nil> hash)", len(malformedTasks))
	}
}
