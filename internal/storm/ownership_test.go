package storm

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Tests of what a bolt may do with its input Values map: the exclusivity
// fact the builder computes (TaskContext.ExclusiveInput), and the two
// runtime paths that let a bolt keep or rewrite its input — a decoded row
// on the wire path is an ordinary map nobody else reuses, and an XOR
// replay arrives as a fresh map.

func nopBolt() Bolt { return &funcBolt{exec: func(Tuple, Collector) error { return nil }} }

func TestExclusiveInputComputed(t *testing.T) {
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 1, keys: 1} }, 1, 1)
	b.SetBolt("shuffled", nopBolt, 2, 2).ShuffleGrouping("src")
	b.SetBolt("keyed", nopBolt, 2, 2).FieldsGrouping("shuffled", "key")
	b.SetBolt("global", nopBolt, 2, 2).GlobalGrouping("keyed")
	// all: every task gets the one map. direct: the emitter picks the tasks.
	b.SetBolt("replicated", nopBolt, 2, 2).AllGrouping("global")
	b.SetBolt("directed", nopBolt, 2, 2).StreamGrouping("replicated", "routed", DirectGrouping)
	// Two readers of one stream share every map on it.
	b.SetBolt("twinA", nopBolt, 1, 1).ShuffleGrouping("directed")
	b.SetBolt("twinB", nopBolt, 1, 1).ShuffleGrouping("directed")
	// One bolt reading the same stream twice is handed each map twice.
	b.SetBolt("twice", nopBolt, 1, 1).ShuffleGrouping("twinA").FieldsGrouping("twinA", "key")
	// Different streams of one source are different edges.
	b.SetBolt("onlyDefault", nopBolt, 1, 1).ShuffleGrouping("twinB")
	b.SetBolt("onlySide", nopBolt, 1, 1).StreamGrouping("twinB", "side", ShuffleGrouping)
	// Exclusive on one input is not enough.
	b.SetBolt("mixed", nopBolt, 1, 1).ShuffleGrouping("onlyDefault").ShuffleGrouping("directed")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"src": false, "shuffled": true, "keyed": true, "global": true,
		"replicated": false, "directed": false, "twinA": false, "twinB": false,
		"twice": false, "onlyDefault": true, "onlySide": true, "mixed": false,
	}
	for id, w := range want {
		if got := topo.byID[id].exclusiveInput; got != w {
			t.Errorf("%s: exclusiveInput = %v, want %v", id, got, w)
		}
	}
}

// TestExclusiveInputReachesTaskContext runs a topology and reads the fact
// where bolts read it.
func TestExclusiveInputReachesTaskContext(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]bool{}
	probe := func() Bolt {
		return &funcBolt{
			prep: func(ctx TaskContext) error {
				mu.Lock()
				seen[ctx.Component] = ctx.ExclusiveInput
				mu.Unlock()
				return nil
			},
			exec: func(tp Tuple, col Collector) error { col.Emit(tp.Values); return nil },
		}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return &seqSpout{n: 4, keys: 2} }, 1, 1)
	b.SetBolt("alone", probe, 2, 2).ShuffleGrouping("src")
	b.SetBolt("left", probe, 1, 1).ShuffleGrouping("alone")
	b.SetBolt("right", probe, 1, 1).ShuffleGrouping("alone")
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
	if want := map[string]bool{"alone": true, "left": false, "right": false}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("ExclusiveInput seen by Prepare = %v, want %v", seen, want)
	}
}

// TestShippedTopologyExclusiveInputs pins the fact for every component of
// the topology trafficd ships: the three enrichment bolts and the Splitter
// are sole receivers; the engines are not (the Splitter direct-emits one
// row to every engine responsible for it).
func TestShippedTopologyExclusiveInputs(t *testing.T) {
	data, err := os.ReadFile("../core/topology.xml")
	if err != nil {
		t.Fatal(err)
	}
	xt, err := ParseXML(data)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for _, s := range xt.Spouts {
		reg.RegisterSpout(s.Type, func(map[string]string) (SpoutFactory, error) {
			return func() Spout { return &seqSpout{} }, nil
		})
	}
	for _, bolt := range xt.Bolts {
		reg.RegisterBolt(bolt.Type, func(map[string]string) (BoltFactory, error) { return nopBolt, nil })
	}
	topo, _, err := LoadXML(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"BusReader": false, "PreProcess": true, "AreaTracker": true, "BusStopsTracker": true,
		"Splitter": true, "EsperBolt": false, "EventsStorer": true,
	}
	if len(topo.specs) != len(want) {
		t.Fatalf("topology has %d components, the test expects %d", len(topo.specs), len(want))
	}
	for _, s := range topo.specs {
		if w, ok := want[s.id]; !ok || s.exclusiveInput != w {
			t.Errorf("%s: exclusiveInput = %v, want %v (known: %v)", s.id, s.exclusiveInput, w, ok)
		}
	}
}

// TestDistributedInPlaceReemitKeepsDecodedMap: on the wire path an input
// map is decoded into a fresh map that belongs to the receiving bolt like
// any other input. A bolt that writes to its decoded input in place and
// re-emits it, and a sink that keeps every row without declaring anything,
// must both see each row intact: were decoded maps reused, the sink would
// see rows cleared and refilled by later frames.
func TestDistributedInPlaceReemitKeepsDecodedMap(t *testing.T) {
	const n = 500
	var mu sync.Mutex
	var kept []map[string]any
	stamper := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			tp.Values["stamp"] = tp.Values["i"].(int) * 7
			col.Emit(tp.Values)
			return nil
		}}
	}
	// A fields-grouped two-executor hop emits on both workers, so the
	// stamper keeps its block slot on worker 1 beside the keeper. The hop
	// hands its input on as is, so every row the stamper gets is a map
	// decoded off the wire — on hop → stamper from the worker-0 hop, on
	// src → hop for the worker-1 one — and its output stays in-process.
	build := func(int) *TopologyBuilder {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &seqSpout{n: n, keys: 3} }, 1, 1)
		b.SetBolt("hop", func() Bolt {
			return &funcBolt{exec: func(tp Tuple, col Collector) error { col.Emit(tp.Values); return nil }}
		}, 2, 2).FieldsGrouping("src", "i")
		b.SetBolt("stamper", stamper, 1, 1).ShuffleGrouping("hop")
		b.SetBolt("keeper", func() Bolt { return &keeperBolt{mu: &mu, kept: &kept} }, 1, 1).ShuffleGrouping("stamper")
		return b
	}
	rig := newDistRig(t, 2, build, WithBatchSize(8))
	for _, p := range rig.rts[0].Placements() {
		if want := map[string]int{"src": 0, "hop": p.TaskIndex, "stamper": 1, "keeper": 1}[p.Component]; p.Worker != want {
			t.Fatalf("%s task %d placed on worker %d, the test needs %d", p.Component, p.TaskIndex, p.Worker, want)
		}
	}
	rig.run(t, 30*time.Second)
	for i, err := range rig.errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if len(kept) != n {
		t.Fatalf("keeper holds %d rows, want %d", len(kept), n)
	}
	seen := make(map[int]bool, n)
	for _, m := range kept {
		i, _ := m["i"].(int)
		if m["stamp"] != i*7 || m["key"] != i%3 || seen[i] {
			t.Fatalf("kept row %v was recycled under its holder (or duplicated)", m)
		}
		seen[i] = true
	}
}

// keeperBolt retains every input map, as a CEP engine does.
type keeperBolt struct {
	mu   *sync.Mutex
	kept *[]map[string]any
}

func (b *keeperBolt) Prepare(TaskContext) error { return nil }
func (b *keeperBolt) Cleanup() error            { return nil }
func (b *keeperBolt) Execute(tp Tuple, _ Collector) error {
	b.mu.Lock()
	*b.kept = append(*b.kept, tp.Values)
	b.mu.Unlock()
	return nil
}

// TestAckerReplayArrivesAsFreshMap: a replay is rebuilt from the acker's
// flat snapshot of the root payload, taken before the first delivery, so a
// consumer that wrote to its input in place before failing meets neither
// that map nor its own writes again.
func TestAckerReplayArrivesAsFreshMap(t *testing.T) {
	const n = 30
	spout := newAckSpout(n)
	var mu sync.Mutex
	first := map[int]map[string]any{} // i → the map of the failed first attempt
	var problems []string
	writer := func() Bolt {
		return &funcBolt{exec: func(tp Tuple, col Collector) error {
			i := tp.Values["i"].(int)
			mu.Lock()
			defer mu.Unlock()
			if _, stale := tp.Values["written"]; stale {
				problems = append(problems, fmt.Sprintf("tuple %d arrived carrying an earlier attempt's write", i))
			}
			tp.Values["written"] = true
			if prev, replay := first[i]; replay {
				if reflect.ValueOf(prev).Pointer() == reflect.ValueOf(tp.Values).Pointer() {
					problems = append(problems, fmt.Sprintf("tuple %d was replayed in the map of its first attempt", i))
				}
				return nil
			}
			if i%3 == 0 {
				first[i] = tp.Values // kept, so its address cannot be reused
				return fmt.Errorf("transient failure")
			}
			return nil
		}}
	}
	b := NewTopologyBuilder("t")
	b.SetSpout("src", func() Spout { return spout }, 1, 1)
	b.SetBolt("writer", writer, 1, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(topo, WithAckTimeout(50*time.Millisecond), WithMaxRetries(5),
		WithFailurePolicy(Degrade), WithQuarantineAfter(1_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	if got := rt.FaultTotals().Replays; got != uint64(len(first)) || len(first) != n/3 {
		t.Fatalf("replays = %d over %d failed first attempts, want %d of each", got, len(first), n/3)
	}
}
