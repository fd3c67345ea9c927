package storm

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchFieldsHashRoutingStable pins the inlined FNV-1a fields-grouping
// key path to the historical fnv.New32a + fmt.Fprintf("%v\x1f") encoding:
// identical hash, therefore identical task assignment, for a corpus covering
// every fast path in appendFieldValue plus the fmt fallback and absent
// fields.
func TestBatchFieldsHashRoutingStable(t *testing.T) {
	type pt struct{ X, Y int }
	corpus := []struct {
		fields []string
		values map[string]any
	}{
		{[]string{"k"}, map[string]any{"k": "vehicle-17"}},
		{[]string{"k"}, map[string]any{"k": ""}},
		{[]string{"k"}, map[string]any{"k": 3.14159}},
		{[]string{"k"}, map[string]any{"k": -0.0}},
		{[]string{"k"}, map[string]any{"k": 1e300}},
		{[]string{"k"}, map[string]any{"k": float64(7)}},
		{[]string{"k"}, map[string]any{"k": 42}},
		{[]string{"k"}, map[string]any{"k": -9000}},
		{[]string{"k"}, map[string]any{"k": int64(1) << 60}},
		{[]string{"k"}, map[string]any{"k": uint64(18446744073709551615)}},
		{[]string{"k"}, map[string]any{"k": true}},
		{[]string{"k"}, map[string]any{"k": false}},
		{[]string{"k"}, map[string]any{"k": float32(2.5)}},
		{[]string{"k"}, map[string]any{"k": nil}},
		{[]string{"k"}, map[string]any{"k": pt{3, 4}}},           // fmt fallback
		{[]string{"k"}, map[string]any{"k": []string{"a", "b"}}}, // fmt fallback
		{[]string{"k"}, map[string]any{}},                        // absent field
		{[]string{"a", "b"}, map[string]any{"a": "L07", "b": 8.0}},
		{[]string{"a", "b"}, map[string]any{"a": "L07"}}, // one absent
		{[]string{"a", "b", "c"}, map[string]any{"a": 1, "b": true, "c": "x\x1fy"}},
	}
	var scratch []byte
	for _, c := range corpus {
		h := fnv.New32a()
		for _, f := range c.fields {
			fmt.Fprintf(h, "%v\x1f", c.values[f])
		}
		want := h.Sum32()

		missing := false
		scratch = appendFieldsKey(scratch[:0], c.fields, c.values, &missing)
		got := fnv1a(scratch)
		if got != want {
			t.Errorf("fields %v values %v: inlined hash %d != fnv.New32a %d (key %q)",
				c.fields, c.values, got, want, scratch)
		}
		for _, n := range []int{2, 3, 5, 7, 16} {
			if int(got%uint32(n)) != int(want%uint32(n)) {
				t.Errorf("fields %v values %v: task at n=%d diverged", c.fields, c.values, n)
			}
		}
		wantMissing := false
		for _, f := range c.fields {
			if _, ok := c.values[f]; !ok {
				wantMissing = true
			}
		}
		if missing != wantMissing {
			t.Errorf("fields %v values %v: missing = %v, want %v", c.fields, c.values, missing, wantMissing)
		}
	}
}

// TestBatchingEquivalentCounts runs the Figure-8 pipeline at batch sizes 1
// (the pre-batching transport, ablation mode) and 64 and asserts identical
// per-component executed/emitted counters and closed accounting on every
// edge: batching changes when tuples move, never how many.
func TestBatchingEquivalentCounts(t *testing.T) {
	const n = 1000
	run := func(batchSize int) (*Runtime, map[string][]TaskMetrics) {
		esper := func() Bolt { return &passBolt{} }
		sink := func() Bolt {
			return &funcBolt{exec: func(Tuple, Collector) error { return nil }}
		}
		topo, err := figure8(n, esper, sink).Build()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(topo, WithBatchSize(batchSize))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt, rt.taskMetricsSnapshot()
	}
	rt1, m1 := run(1)
	rt64, m64 := run(64)
	for comp, tasks1 := range m1 {
		tasks64 := m64[comp]
		if len(tasks1) != len(tasks64) {
			t.Fatalf("%s: task count %d vs %d", comp, len(tasks1), len(tasks64))
		}
		for i := range tasks1 {
			if tasks1[i].Executed != tasks64[i].Executed || tasks1[i].Emitted != tasks64[i].Emitted ||
				tasks1[i].Dropped != tasks64[i].Dropped {
				t.Errorf("%s task %d: batch=1 %+v, batch=64 %+v", comp, i, tasks1[i], tasks64[i])
			}
		}
	}
	chain := []string{"busreader", "preprocess", "areatracker", "busstops", "splitter", "esper", "storer"}
	for _, rt := range []*Runtime{rt1, rt64} {
		for i := 0; i < len(chain)-1; i++ {
			edgeReconciles(t, rt, chain[i], chain[i+1])
		}
	}
	// Batching must actually batch: with 1000 tuples and size-64 batches the
	// first hop sees far fewer deliveries than tuples.
	b1 := rt1.comps["preprocess"].batchesIn.Load()
	b64 := rt64.comps["preprocess"].batchesIn.Load()
	if b1 != n {
		t.Errorf("batch=1 delivered %d batches to preprocess, want %d (one per tuple)", b1, n)
	}
	if b64 >= b1/4 {
		t.Errorf("batch=64 delivered %d batches to preprocess, want far fewer than %d", b64, b1)
	}
}

// idleSpout emits one tuple, then idles (alive but not emitting) until the
// sink reports the tuple arrived — which can only happen if the runtime
// flushes the partially filled batch on the spout-side timeout.
type idleSpout struct {
	emitted  bool
	arrived  *atomic.Bool
	deadline time.Time
}

func (s *idleSpout) Open(TaskContext) error { return nil }
func (s *idleSpout) Close() error           { return nil }
func (s *idleSpout) NextTuple(col Collector) (bool, error) {
	if !s.emitted {
		s.emitted = true
		s.deadline = time.Now().Add(5 * time.Second)
		col.Emit(map[string]any{"i": 0})
		return true, nil
	}
	if s.arrived.Load() {
		return false, nil
	}
	if time.Now().After(s.deadline) {
		return false, fmt.Errorf("tuple never arrived: partial batch was not flushed on timeout")
	}
	time.Sleep(100 * time.Microsecond)
	return true, nil
}

// TestBatchTimeoutFlushesPartialBatch: a single buffered tuple must reach
// the sink while the spout is still running (BatchTimeout flush), not only
// at spout exit.
func TestBatchTimeoutFlushesPartialBatch(t *testing.T) {
	var arrived atomic.Bool
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &idleSpout{arrived: &arrived} }, 1, 1)
	b.SetBolt("sink", func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error {
			arrived.Store(true)
			return nil
		}}
	}, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithBatchSize(64), WithBatchTimeout(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !arrived.Load() {
		t.Fatal("tuple never delivered")
	}
}

// TestBackpressureBlocksWithoutDrops fills the (tiny) channel buffer behind
// a gated bolt and asserts the spout's sends block — bounded emission while
// the bolt is stalled, every tuple delivered once released, zero drops — at
// batch size 1 and 64.
func TestBackpressureBlocksWithoutDrops(t *testing.T) {
	const n = 2000
	for _, batchSize := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batchSize), func(t *testing.T) {
			gate := make(chan struct{})
			var executed atomic.Int64
			b := NewTopologyBuilder("t")
			b.SetSpout("src", func() Spout { return &seqSpout{n: n, keys: 7} }, 1, 1)
			b.SetBolt("slow", func() Bolt {
				return &funcBolt{exec: func(tp Tuple, col Collector) error {
					<-gate // blocks until the gate opens, then passes freely
					executed.Add(1)
					col.Emit(tp.Values)
					return nil
				}}
			}, 1, 1).ShuffleGrouping("src")
			var delivered atomic.Int64
			b.SetBolt("sink", func() Bolt {
				return &funcBolt{exec: func(Tuple, Collector) error {
					delivered.Add(1)
					return nil
				}}
			}, 1, 1).ShuffleGrouping("slow")
			topo, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			rt, err := New(topo, withChannelBuffer(1), WithBatchSize(batchSize))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- rt.Run() }()

			// Wait for the spout to wedge against the full channel: its
			// emitted count must stabilize strictly below n.
			var prev, cur uint64
			deadline := time.Now().Add(5 * time.Second)
			for {
				cur = rt.taskMetricsSnapshot()["src"][0].Emitted
				if cur > 0 && cur == prev {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("spout never stalled against backpressure")
				}
				prev = cur
				time.Sleep(20 * time.Millisecond)
			}
			if cur >= n {
				t.Fatalf("spout emitted all %d tuples against a blocked pipeline — no backpressure", n)
			}

			close(gate)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not finish after releasing the gate — deadlock")
			}
			if got := delivered.Load(); got != n {
				t.Fatalf("delivered = %d, want %d (no drops under backpressure)", got, n)
			}
			edgeReconciles(t, rt, "src", "slow")
			edgeReconciles(t, rt, "slow", "sink")
			var dropped uint64
			for _, tasks := range rt.taskMetricsSnapshot() {
				for _, tm := range tasks {
					dropped += tm.Dropped
				}
			}
			if dropped != 0 {
				t.Fatalf("dropped = %d, want 0", dropped)
			}
		})
	}
}
