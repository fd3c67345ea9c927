package core

import (
	"fmt"
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// TestTrafficTopologyTelemetry runs the Figure 8 topology with the unified
// telemetry registry and checks the tuple tracing end to end: every tuple
// delivered to a bolt (spout emit → PreProcess → … → Splitter → EsperBolt →
// EventsStorer) must leave exactly one hop-latency observation there, and
// every tuple reaching the sink must leave one end-to-end observation. The
// per-engine CEP sources must surface in the same registry walk, with one
// rule on each location field: a trace reaches the engine of its leaf and
// the engine of its stop, and each engine's stmt.<rule>.events_in counts the
// deliveries whose location on the rule's field it owns (plus the rule's
// thresholds), <engine>.events_unowned the rest.
func TestTrafficTopologyTelemetry(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 40, 10)
	rules := []Rule{
		{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 5, Sensitivity: 1},
		{Name: "stopDelay", Attribute: busdata.AttrDelay, Kind: BusStops, Window: 5, Sensitivity: 1},
	}
	const engines = 3
	regions := map[string][]RegionRate{}
	for _, leaf := range tree.Leaves() {
		regions["leafArea"] = append(regions["leafArea"], RegionRate{Location: string(leaf.ID), Rate: 1})
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if !seen[tr.BusStop] {
			seen[tr.BusStop] = true
			regions["stopId"] = append(regions["stopId"], RegionRate{Location: tr.BusStop, Rate: 1})
		}
	}

	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	var stats []sqlstore.StatRow
	for _, field := range []string{"leafArea", "stopId"} {
		for _, r := range regions[field] {
			for h := 0; h < 24; h++ {
				for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
					stats = append(stats, sqlstore.StatRow{
						Attribute: busdata.AttrDelay, Location: r.Location,
						Hour: h, Day: day, Mean: -1e6, Stdv: 0,
					})
				}
			}
		}
	}
	if err := store.Put(stats); err != nil {
		t.Fatal(err)
	}

	routing := NewRoutingTable(RouteByLocation, engines)
	parts := map[string]*Partition{}
	for _, field := range []string{"leafArea", "stopId"} {
		part, err := PartitionRegions(regions[field], engines)
		if err != nil {
			t.Fatal(err)
		}
		parts[field] = part
		if err := routing.AddPartition(field, part, []int{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	topo, err := BuildTrafficTopology(TrafficConfig{
		Traces: traces, Tree: tree, Engines: engines, Routing: routing, DB: db,
		Telemetry: reg,
		EngineSetup: func(taskIndex int, eng *cep.Engine) ([]*InstalledRule, error) {
			var installs []*InstalledRule
			for _, r := range rules {
				inst, err := InstallRule(eng, r, InstallOptions{
					Store: store, Locations: routing.Locations(r.LocationField(), taskIndex),
				})
				if err != nil {
					return nil, err
				}
				installs = append(installs, inst)
			}
			return installs, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := storm.New(topo, storm.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	// Per-hop latency recorded for every delivered tuple, at every bolt of
	// the chain: observation counts must equal the monitor's executed
	// counters exactly.
	executed := map[string]uint64{}
	for _, tot := range rt.Monitor().TotalsByComponent() {
		executed[tot.Component] = tot.Executed
	}
	for _, comp := range []string{CompPreProcess, CompAreaTrack, CompBusStops, CompSplitter, CompEsper, CompStorer} {
		if executed[comp] == 0 {
			t.Fatalf("%s executed nothing", comp)
		}
		got := reg.Histogram("storm." + comp + ".hop_latency_ns").Count()
		if got != executed[comp] {
			t.Fatalf("%s hop observations = %d, want %d (one per delivered tuple)", comp, got, executed[comp])
		}
	}
	// End-to-end latency recorded at the sink only, once per stored event.
	if got := reg.Histogram("storm." + CompStorer + ".e2e_latency_ns").Count(); got != executed[CompStorer] {
		t.Fatalf("e2e observations = %d, want %d", got, executed[CompStorer])
	}
	if _, ok := reg.Snapshot().Get("storm." + CompEsper + ".e2e_latency_ns"); ok {
		t.Fatal("EsperBolt is not a sink and must not record end-to-end latency")
	}

	// The same registry walk exposes the per-engine CEP sources and the
	// storm monitor — Gather is the single replacement for the old
	// per-package snapshot APIs.
	snap := reg.Gather()
	var eventsIn uint64
	for i := 0; i < engines; i++ {
		m, ok := snap.Get(fmt.Sprintf("cep.engine%d.events_in", i))
		if !ok {
			t.Fatalf("engine %d missing from the registry", i)
		}
		eventsIn += uint64(m.Value)
	}
	if eventsIn < executed[CompEsper] {
		t.Fatalf("engines saw %d events, want at least the %d executed tuples", eventsIn, executed[CompEsper])
	}
	if m, ok := snap.Get("storm." + CompEsper + ".executed"); !ok || uint64(m.Value) != executed[CompEsper] {
		t.Fatalf("storm.%s.executed = %+v, want %d", CompEsper, m, executed[CompEsper])
	}
	if len(reg.Sources()) < engines+1 { // monitor + one source per engine
		t.Fatalf("sources = %v, want monitor plus %d engines", reg.Sources(), engines)
	}

	// Replay the routing: per engine, the deliveries each rule takes and the
	// statement turns it skips.
	admitted := make([]map[string]uint64, engines)
	unowned := make([]uint64, engines)
	for e := range admitted {
		admitted[e] = map[string]uint64{}
	}
	for _, tr := range traces {
		values := map[string]any{"stopId": tr.BusStop}
		if leaf := tree.Locate(tr.Pos); leaf != nil {
			values["leafArea"] = string(leaf.ID)
		}
		for _, e := range routing.EnginesFor(values) {
			for _, r := range rules {
				if loc, _ := values[r.LocationField()].(string); parts[r.LocationField()].ByLocation[loc] == e && loc != "" {
					admitted[e][r.Name]++
				} else {
					unowned[e]++
				}
			}
		}
	}
	var skipped uint64
	for e := 0; e < engines; e++ {
		prefix := fmt.Sprintf("cep.engine%d.", e)
		if m, _ := snap.Get(prefix + "events_unowned"); uint64(m.Value) != unowned[e] {
			t.Fatalf("%sevents_unowned = %v, want %d", prefix, m.Value, unowned[e])
		}
		skipped += unowned[e]
		// The thresholds are a table: no event of theirs reaches a rule.
		for _, r := range rules {
			if m, _ := snap.Get(prefix + "stmt." + r.Name + ".events_in"); uint64(m.Value) != admitted[e][r.Name] {
				t.Fatalf("%sstmt.%s.events_in = %v, want its %d owned deliveries",
					prefix, r.Name, m.Value, admitted[e][r.Name])
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no delivery reached an engine that does not own its location on the other field")
	}
}

// TestPreProcessCountsOutOfOrder: with telemetry on, every PreProcess task
// is a source of core.preprocess.out_of_order, the sum over the tasks of
// the traces whose timestamp is not after their vehicle's previous one.
// Repeated collections, also while the tasks run, add only what is new.
func TestPreProcessCountsOutOfOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	tasks := []*preProcessBolt{{telemetry: reg}, {telemetry: reg}}
	col := &emitRecorder{}
	for _, b := range tasks {
		if err := b.Prepare(storm.TaskContext{Component: CompPreProcess, NumTasks: len(tasks)}); err != nil {
			t.Fatal(err)
		}
	}
	send := func(b *preProcessBolt, vehicle string, ts float64) {
		t.Helper()
		if err := b.Execute(storm.Tuple{Values: map[string]any{"ts": ts, "vehicleId": vehicle}}, col); err != nil {
			t.Fatal(err)
		}
	}
	counted := func() float64 {
		t.Helper()
		m, ok := reg.Gather().Get("core.preprocess.out_of_order")
		if !ok {
			t.Fatal("core.preprocess.out_of_order is not published")
		}
		return m.Value
	}

	// A collector runs beside the tasks, as the telemetry exporter does.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Gather()
			}
		}
	}()
	send(tasks[0], "v1", 100)
	send(tasks[0], "v1", 100) // duplicate timestamp
	send(tasks[0], "v1", 160)
	send(tasks[1], "v2", 100)
	send(tasks[1], "v2", 40) // backwards
	close(stop)
	<-done
	if got := counted(); got != 2 {
		t.Fatalf("out of order = %v, want 2", got)
	}
	if got := counted(); got != 2 {
		t.Fatalf("out of order after a second collection = %v, want still 2", got)
	}
	send(tasks[1], "v2", 90) // still behind v2's 100
	if got := counted(); got != 3 {
		t.Fatalf("out of order = %v, want 3", got)
	}
}
