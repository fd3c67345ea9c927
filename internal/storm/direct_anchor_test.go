package storm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestAckDirectAnchoredRouterReplay: the full splitter shape — an anchored
// spout feeds a router bolt which re-emits each tuple with a plain
// EmitDirect to one task of a direct-grouped sink. A bolt's direct emission
// rides its input's tuple tree, so a sink failure replays the whole chain.
func TestAckDirectAnchoredRouterReplay(t *testing.T) {
	const n = 15
	spout := newAckSpout(n)
	router := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			col.EmitDirect("routed", tp.Values["i"].(int)%3, tp.Values)
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
