package storm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// seqSpout emits n sequential tuples {i: 0..n-1, key: i % keys}.
type seqSpout struct {
	n, keys int
	i       int
}

func (s *seqSpout) Open(TaskContext) error { return nil }
func (s *seqSpout) Close() error           { return nil }
func (s *seqSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	col.Emit(map[string]any{"i": s.i, "key": s.i % s.keys})
	s.i++
	return s.i < s.n, nil
}

// sinkBolt records every tuple it sees, tagged with its task index.
type sinkBolt struct {
	mu     *sync.Mutex
	got    *[]Tuple
	byTask map[int]*int64
	ctx    TaskContext
}

func newSink() (*sync.Mutex, *[]Tuple, map[int]*int64, BoltFactory) {
	mu := &sync.Mutex{}
	got := &[]Tuple{}
	byTask := map[int]*int64{}
	factory := func() Bolt {
		return &sinkBolt{mu: mu, got: got, byTask: byTask}
	}
	return mu, got, byTask, factory
}

func (b *sinkBolt) Prepare(ctx TaskContext) error {
	b.ctx = ctx
	b.mu.Lock()
	b.byTask[ctx.TaskIndex] = new(int64)
	b.mu.Unlock()
	return nil
}

func (b *sinkBolt) Execute(t Tuple, _ Collector) error {
	b.mu.Lock()
	*b.got = append(*b.got, t)
	ctr := b.byTask[b.ctx.TaskIndex]
	b.mu.Unlock()
	atomic.AddInt64(ctr, 1)
	return nil
}

func (b *sinkBolt) Cleanup() error { return nil }

// passBolt forwards tuples, adding its task index.
type passBolt struct{ ctx TaskContext }

func (b *passBolt) Prepare(ctx TaskContext) error { b.ctx = ctx; return nil }
func (b *passBolt) Execute(t Tuple, col Collector) error {
	v := map[string]any{"via": b.ctx.TaskIndex}
	for k, val := range t.Values {
		v[k] = val
	}
	col.Emit(v)
	return nil
}
func (b *passBolt) Cleanup() error { return nil }

func runSimple(t *testing.T, b *TopologyBuilder, opts ...Option) *Runtime {
	t.Helper()
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestLinearPipelineDeliversAll(t *testing.T) {
	_, got, _, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 100, keys: 5} }, 1, 1)
	b.SetBolt("mid", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("src")
	b.SetBolt("sink", sink, 1, 1).ShuffleGrouping("mid")
	runSimple(t, b)
	if len(*got) != 100 {
		t.Fatalf("delivered = %d, want 100", len(*got))
	}
}

func TestShuffleGroupingBalances(t *testing.T) {
	_, _, byTask, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 100, keys: 5} }, 1, 1)
	b.SetBolt("sink", sink, 4, 4).ShuffleGrouping("src")
	runSimple(t, b)
	for ti, c := range byTask {
		if *c != 25 {
			t.Fatalf("task %d got %d tuples, want 25 (round-robin)", ti, *c)
		}
	}
}

func TestFieldsGroupingRoutesByKey(t *testing.T) {
	mu, got, _, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 200, keys: 10} }, 1, 1)
	b.SetBolt("mark", func() Bolt { return &passBolt{} }, 3, 3).FieldsGrouping("src", "key")
	b.SetBolt("sink", sink, 1, 1).ShuffleGrouping("mark")
	runSimple(t, b)
	mu.Lock()
	defer mu.Unlock()
	taskOfKey := map[any]any{}
	for _, tp := range *got {
		k := tp.Values["key"]
		via := tp.Values["via"]
		if prev, ok := taskOfKey[k]; ok && prev != via {
			t.Fatalf("key %v routed to tasks %v and %v", k, prev, via)
		}
		taskOfKey[k] = via
	}
	if len(taskOfKey) != 10 {
		t.Fatalf("keys seen = %d", len(taskOfKey))
	}
}

func TestAllGroupingReplicates(t *testing.T) {
	_, got, byTask, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 50, keys: 5} }, 1, 1)
	b.SetBolt("sink", sink, 3, 3).AllGrouping("src")
	runSimple(t, b)
	if len(*got) != 150 {
		t.Fatalf("delivered = %d, want 150 (replicated to 3 tasks)", len(*got))
	}
	for ti, c := range byTask {
		if *c != 50 {
			t.Fatalf("task %d got %d, want 50", ti, *c)
		}
	}
}

func TestGlobalGroupingSingleTask(t *testing.T) {
	_, _, byTask, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 60, keys: 3} }, 1, 1)
	b.SetBolt("sink", sink, 3, 3).GlobalGrouping("src")
	runSimple(t, b)
	if *byTask[0] != 60 {
		t.Fatalf("task 0 got %d, want 60", *byTask[0])
	}
	if *byTask[1] != 0 || *byTask[2] != 0 {
		t.Fatal("non-zero delivery to other tasks under global grouping")
	}
}

// directSpout emits each tuple directly to task i%3 on a named stream.
type directSpout struct{ i int }

func (s *directSpout) Open(TaskContext) error { return nil }
func (s *directSpout) Close() error           { return nil }
func (s *directSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= 30 {
		return false, nil
	}
	col.EmitDirect("routed", s.i%3, map[string]any{"i": s.i})
	s.i++
	return s.i < 30, nil
}

func TestDirectGrouping(t *testing.T) {
	_, _, byTask, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &directSpout{} }, 1, 1)
	b.SetBolt("sink", sink, 3, 3).StreamGrouping("src", "routed", DirectGrouping)
	runSimple(t, b)
	for ti := 0; ti < 3; ti++ {
		if *byTask[ti] != 10 {
			t.Fatalf("task %d got %d, want 10", ti, *byTask[ti])
		}
	}
}

func TestMultipleSpoutTasksPartitionWork(t *testing.T) {
	// Two spout tasks each emit their own sequence; the sink must see both.
	var mu sync.Mutex
	count := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 40, keys: 2} }, 2, 2)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		}}
	}, 1, 1).ShuffleGrouping("src")
	runSimple(t, b)
	if count != 80 {
		t.Fatalf("count = %d, want 80 (two spout tasks)", count)
	}
}

type funcBolt struct {
	prep func(TaskContext) error
	exec func(Tuple, Collector) error
}

func (b *funcBolt) Prepare(ctx TaskContext) error {
	if b.prep != nil {
		return b.prep(ctx)
	}
	return nil
}
func (b *funcBolt) Execute(t Tuple, col Collector) error { return b.exec(t, col) }
func (b *funcBolt) Cleanup() error                       { return nil }

func TestTasksGreaterThanExecutorsPseudoParallel(t *testing.T) {
	// 4 tasks on 2 executors: all tasks must be prepared and all tuples
	// delivered (the SpeedCalculatorBolt situation of Figure 1).
	var mu sync.Mutex
	prepared := map[int]bool{}
	count := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 100, keys: 4} }, 1, 1)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{
			prep: func(ctx TaskContext) error {
				mu.Lock()
				prepared[ctx.TaskIndex] = true
				mu.Unlock()
				return nil
			},
			exec: func(Tuple, Collector) error {
				mu.Lock()
				count++
				mu.Unlock()
				return nil
			},
		}
	}, 2, 4).FieldsGrouping("src", "key")
	rt := runSimple(t, b)
	if len(prepared) != 4 {
		t.Fatalf("prepared tasks = %d, want 4", len(prepared))
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	// Executors must be capped by tasks and assignment must cover all 4.
	execs, tasks, _ := rt.topo.Parallelism("sink")
	if execs != 2 || tasks != 4 {
		t.Fatalf("parallelism = %d/%d", execs, tasks)
	}
}

func TestExecutorsCappedAtTasks(t *testing.T) {
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("sink", func() Bolt { return &passBolt{} }, 5, 2).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	execs, tasks, _ := topo.Parallelism("sink")
	if execs != 2 || tasks != 2 {
		t.Fatalf("parallelism = %d/%d, want 2/2", execs, tasks)
	}
}

// TestRoundRobinPlacementAcrossWorkers: New computes the placement of a
// three-worker run without dialing anyone, and a six-executor component
// spreads round-robin over the workers.
func TestRoundRobinPlacementAcrossWorkers(t *testing.T) {
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("esper", func() Bolt { return &passBolt{} }, 6, 6).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithWorker(0, []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}))
	if err != nil {
		t.Fatal(err)
	}
	perWorker := map[int]int{}
	for _, p := range rt.Placements() {
		if p.Component == "esper" {
			perWorker[p.Worker]++
		}
	}
	// 6 executors over 3 workers round-robin → 2 each (the paper's equal
	// engines-per-node allocation, §3.2).
	if len(perWorker) != 3 {
		t.Fatalf("workers used = %d, want 3", len(perWorker))
	}
	for w, c := range perWorker {
		if c != 2 {
			t.Fatalf("worker %d has %d esper tasks, want 2", w, c)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() *TopologyBuilder
		want  string
	}{
		{"empty", func() *TopologyBuilder { return NewTopologyBuilder("t") }, "empty topology"},
		{"no spout", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetBolt("b", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("b2")
			b.SetBolt("b2", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("b")
			return b
		}, "no spout"},
		{"unknown source", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetSpout("s", func() Spout { return &seqSpout{} }, 1, 1)
			b.SetBolt("b", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("ghost")
			return b
		}, "unknown component"},
		{"bolt no grouping", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetSpout("s", func() Spout { return &seqSpout{} }, 1, 1)
			b.SetBolt("b", func() Bolt { return &passBolt{} }, 1, 1)
			return b
		}, "no input grouping"},
		{"self subscribe", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetSpout("s", func() Spout { return &seqSpout{} }, 1, 1)
			b.SetBolt("b", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("b")
			return b
		}, "subscribes to itself"},
		{"duplicate id", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetSpout("x", func() Spout { return &seqSpout{} }, 1, 1)
			b.SetSpout("x", func() Spout { return &seqSpout{} }, 1, 1)
			return b
		}, "duplicate component"},
		{"fields without fields", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetSpout("s", func() Spout { return &seqSpout{} }, 1, 1)
			b.SetBolt("b", func() Bolt { return &passBolt{} }, 1, 1).FieldsGrouping("s")
			return b
		}, "no fields"},
		{"cycle", func() *TopologyBuilder {
			b := NewTopologyBuilder("t")
			b.SetSpout("s", func() Spout { return &seqSpout{} }, 1, 1)
			b.SetBolt("b1", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("s").ShuffleGrouping("b2")
			b.SetBolt("b2", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("b1")
			return b
		}, "cycle"},
	}
	for _, c := range cases {
		_, err := c.build().Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestExecuteErrorRecordedRunContinues(t *testing.T) {
	var mu sync.Mutex
	count := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 10, keys: 2} }, 1, 1)
	b.SetBolt("flaky", func() Bolt {
		return &funcBolt{exec: func(tp Tuple, _ Collector) error {
			mu.Lock()
			count++
			mu.Unlock()
			if tp.Values["i"] == 3 {
				return fmt.Errorf("tuple 3 exploded")
			}
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
	err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), "tuple 3 exploded") {
		t.Fatalf("err = %v", err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10 (processing continues after error)", count)
	}
	ms := rt.taskMetricsSnapshot()["flaky"]
	if ms[0].Errors != 1 {
		t.Fatalf("errors = %d, want 1", ms[0].Errors)
	}
}

// TestAccountingReconcilesUnderInjectedErrors runs the Figure 8 pipeline
// with bolts that error on a slice of tuples and asserts the delivery
// accounting on every edge: tuples emitted upstream equal tuples executed
// plus tuples dropped downstream, under both failure policies.
func TestAccountingReconcilesUnderInjectedErrors(t *testing.T) {
	const n = 500
	cases := []struct {
		name    string
		policy  FailurePolicy
		wantErr bool
	}{
		{"failfast", FailFast, true},
		{"degrade", Degrade, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			esper := func() Bolt {
				return &funcBolt{exec: func(tp Tuple, col Collector) error {
					if tp.Values["i"].(int)%7 == 0 {
						return fmt.Errorf("injected error")
					}
					col.Emit(tp.Values)
					return nil
				}}
			}
			sink := func() Bolt {
				return &funcBolt{exec: func(Tuple, Collector) error { return nil }}
			}
			topo, err := figure8(n, esper, sink).Build()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(topo, WithFailurePolicy(c.policy), withQuarantineAfter(1000))
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Run()
			if c.wantErr && (err == nil || !strings.Contains(err.Error(), "injected error")) {
				t.Fatalf("err = %v, want injected error", err)
			}
			if !c.wantErr && err != nil {
				t.Fatalf("err = %v, want nil under Degrade", err)
			}
			chain := []string{"busreader", "preprocess", "areatracker", "busstops", "splitter", "esper", "storer"}
			for i := 0; i < len(chain)-1; i++ {
				edgeReconciles(t, rt, chain[i], chain[i+1])
			}
			// The erroring stage still executed every routed tuple; only its
			// emissions shrank. Errors are visible in the totals.
			totals := rt.Monitor().TotalsByComponent()
			for _, tot := range totals {
				if tot.Component == "esper" {
					if tot.Errors == 0 {
						t.Fatal("esper errors not counted")
					}
					if tot.Emitted != tot.Executed-tot.Errors {
						t.Fatalf("esper emitted %d, want executed %d - errors %d", tot.Emitted, tot.Executed, tot.Errors)
					}
				}
			}
		})
	}
}

func TestMonitorReportsWindows(t *testing.T) {
	_, _, _, sink := newSink()
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 500, keys: 5} }, 1, 1)
	b.SetBolt("sink", sink, 2, 2).ShuffleGrouping("src")
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
	rep := rt.Monitor().SnapshotNow()
	cs := rep.Components["sink"]
	if cs.Executed != 500 {
		t.Fatalf("window executed = %d, want 500", cs.Executed)
	}
	if cs.Throughput <= 0 {
		t.Fatal("throughput must be positive")
	}
	if len(cs.Tasks) != 2 {
		t.Fatalf("task windows = %d", len(cs.Tasks))
	}
	// A second snapshot sees an empty window.
	rep2 := rt.Monitor().SnapshotNow()
	if rep2.Components["sink"].Executed != 0 {
		t.Fatal("second window should be empty")
	}
	if len(rt.Monitor().Reports()) != 2 {
		t.Fatalf("reports = %d", len(rt.Monitor().Reports()))
	}
	totals := rt.Monitor().TotalsByComponent()
	found := false
	for _, tot := range totals {
		if tot.Component == "sink" {
			found = true
			if tot.Executed != 500 {
				t.Fatalf("total executed = %d", tot.Executed)
			}
		}
	}
	if !found {
		t.Fatal("sink missing from totals")
	}
}

func TestDiamondTopologyNoDoubleClose(t *testing.T) {
	// src → (a, b) → sink: sink has four upstream executors and returns
	// once all four ended their streams, after both branches delivered.
	var mu sync.Mutex
	count := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 50, keys: 5} }, 1, 1)
	b.SetBolt("a", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("src")
	b.SetBolt("bb", func() Bolt { return &passBolt{} }, 2, 2).ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		}}
	}, 1, 1).ShuffleGrouping("a").ShuffleGrouping("bb")
	runSimple(t, b)
	if count != 100 {
		t.Fatalf("count = %d, want 100 (50 via each branch)", count)
	}
}

func TestBackpressureSmallBuffers(t *testing.T) {
	// Tiny channel buffers must not deadlock a linear pipeline.
	var mu sync.Mutex
	count := 0
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 2000, keys: 7} }, 1, 1)
	b.SetBolt("m1", func() Bolt { return &passBolt{} }, 1, 1).ShuffleGrouping("src")
	b.SetBolt("m2", func() Bolt { return &passBolt{} }, 2, 2).FieldsGrouping("m1", "key")
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		}}
	}, 1, 1).ShuffleGrouping("m2")
	runSimple(t, b, withChannelBuffer(1))
	if count != 2000 {
		t.Fatalf("count = %d, want 2000", count)
	}
}

func TestTaskContextFields(t *testing.T) {
	var mu sync.Mutex
	ctxs := map[int]TaskContext{}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{
			prep: func(ctx TaskContext) error {
				mu.Lock()
				ctxs[ctx.TaskIndex] = ctx
				mu.Unlock()
				return nil
			},
			exec: func(Tuple, Collector) error { return nil },
		}
	}, 2, 2).ShuffleGrouping("src")
	runSimple(t, b)
	if len(ctxs) != 2 {
		t.Fatalf("tasks prepared = %d", len(ctxs))
	}
	for i, ctx := range ctxs {
		if ctx.Component != "sink" || ctx.NumTasks != 2 || ctx.TaskIndex != i {
			t.Fatalf("bad ctx: %+v", ctx)
		}
	}
	if ctxs[0].TaskID == ctxs[1].TaskID {
		t.Fatal("global task ids must be unique")
	}
}
