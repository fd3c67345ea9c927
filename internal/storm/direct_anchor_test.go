package storm

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// directAckSpout emits each tuple straight to a chosen task of a
// direct-grouped bolt, anchored for at-least-once delivery — the Splitter
// situation when routing happens at the source.
type directAckSpout struct {
	n, i int

	mu     sync.Mutex
	acked  map[string]int
	failed map[string]int
}

func (s *directAckSpout) Open(TaskContext) error { return nil }
func (s *directAckSpout) Close() error           { return nil }
func (s *directAckSpout) NextTuple(col Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	vals := map[string]any{"i": s.i}
	if dc, ok := col.(DirectAnchorCollector); ok && dc.Acking() {
		dc.EmitDirectAnchored(strconv.Itoa(s.i), "routed", s.i%3, vals)
	} else {
		col.EmitDirect("routed", s.i%3, vals)
	}
	s.i++
	return s.i < s.n, nil
}
func (s *directAckSpout) Ack(msgID string) {
	s.mu.Lock()
	s.acked[msgID]++
	s.mu.Unlock()
}
func (s *directAckSpout) Fail(msgID string) {
	s.mu.Lock()
	s.failed[msgID]++
	s.mu.Unlock()
}

// TestAckDirectAnchoredSpoutReplay: regression for the splitter-edge hole —
// before EmitDirectAnchored, a spout feeding a direct-grouped bolt had no
// way to anchor its tuples, so a downstream failure was never replayed.
// Every tuple fails its first attempt; all must be replayed to the SAME
// task and eventually acked.
func TestAckDirectAnchoredSpoutReplay(t *testing.T) {
	const n = 21
	spout := &directAckSpout{n: n, acked: map[string]int{}, failed: map[string]int{}}
	var mu sync.Mutex
	attempts := map[any]int{}
	taskOf := map[any]int{} // message → the task that executed it
	flaky := func() Bolt {
		fb := &funcBolt{}
		var task int
		fb.prep = func(ctx TaskContext) error {
			task = ctx.TaskIndex
			return nil
		}
		fb.exec = func(tp Tuple, _ Collector) error {
			mu.Lock()
			attempts[tp.Values["i"]]++
			first := attempts[tp.Values["i"]] == 1
			if prev, seen := taskOf[tp.Values["i"]]; seen && prev != task {
				mu.Unlock()
				return fmt.Errorf("tuple %v replayed to task %d, first seen on %d", tp.Values["i"], task, prev)
			}
			taskOf[tp.Values["i"]] = task
			mu.Unlock()
			if first {
				return fmt.Errorf("transient failure")
			}
			return nil
		}
		return fb
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return spout }, 1, 1)
	b.SetBolt("sink", flaky, 3, 3).StreamGrouping("src", "routed", DirectGrouping)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo,
		WithAckTimeout(20*time.Millisecond),
		WithMaxRetries(5),
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
	if len(spout.acked) != n {
		t.Fatalf("acked %d message ids, want %d (failed: %v)", len(spout.acked), n, spout.failed)
	}
	if len(spout.failed) != 0 {
		t.Fatalf("failed callbacks for %v, want none", spout.failed)
	}
	ft := rt.FaultTotals()
	if ft.Replays < n {
		t.Fatalf("replays = %d, want ≥ %d (every tuple failed once)", ft.Replays, n)
	}
}

// TestAckDirectAnchoredRouterReplay: the full splitter shape — an anchored
// spout feeds a router bolt which re-emits each tuple direct to one task of
// a direct-grouped sink. The direct emission must stay inside the root's
// tuple tree, so a sink failure replays the whole chain.
func TestAckDirectAnchoredRouterReplay(t *testing.T) {
	const n = 15
	spout := newAckSpout(n)
	router := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			i := tp.Values["i"].(int)
			if dc, ok := col.(DirectAnchorCollector); ok {
				dc.EmitDirectAnchored("", "routed", i%3, tp.Values)
			} else {
				col.EmitDirect("routed", i%3, tp.Values)
			}
			return nil
		}}
	}
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
	b.SetBolt("router", router, 1, 1).ShuffleGrouping("src")
	b.SetBolt("sink", flaky, 3, 3).StreamGrouping("router", "routed", DirectGrouping)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo,
		WithAckTimeout(20*time.Millisecond),
		WithMaxRetries(5),
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
	if len(spout.acked) != n {
		t.Fatalf("acked %d message ids, want %d (failed: %v)", len(spout.acked), n, spout.failed)
	}
	ft := rt.FaultTotals()
	if ft.Replays < n {
		t.Fatalf("replays = %d, want ≥ %d", ft.Replays, n)
	}
}

// TestDropReporterCountsIntentionalDrop: a bolt that discards a tuple via
// ReportDrop must close the accounting (executed = emitted + dropped on its
// edge) instead of the tuple silently vanishing.
func TestDropReporterCountsIntentionalDrop(t *testing.T) {
	drop := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			if tp.Values["i"].(int)%2 == 0 {
				col.Emit(tp.Values)
				return nil
			}
			dr, ok := col.(DropReporter)
			if !ok {
				return fmt.Errorf("collector does not implement DropReporter")
			}
			dr.ReportDrop()
			return nil
		}}
	}
	sink := func() Bolt {
		return &funcBolt{exec: func(Tuple, Collector) error { return nil }}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 30, keys: 3} }, 1, 1)
	b.SetBolt("gate", drop, 1, 1).ShuffleGrouping("src")
	b.SetBolt("sink", sink, 1, 1).ShuffleGrouping("gate")
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
	for _, tot := range rt.Monitor().TotalsByComponent() {
		if tot.Component != "gate" {
			continue
		}
		if tot.Executed != 30 || tot.Emitted != 15 || tot.Dropped != 15 {
			t.Fatalf("gate executed/emitted/dropped = %d/%d/%d, want 30/15/15",
				tot.Executed, tot.Emitted, tot.Dropped)
		}
		return
	}
	t.Fatal("gate totals not found")
}
