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
// per-engine CEP sources must surface in the same registry walk.
func TestTrafficTopologyTelemetry(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 40, 10)

	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	var stats []sqlstore.StatRow
	for _, leaf := range tree.Leaves() {
		for h := 0; h < 24; h++ {
			for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
				stats = append(stats, sqlstore.StatRow{
					Attribute: busdata.AttrDelay, Location: string(leaf.ID),
					Hour: h, Day: day, Mean: -1e6, Stdv: 0,
				})
			}
		}
	}
	if err := store.Put(stats); err != nil {
		t.Fatal(err)
	}

	rule := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 5, Sensitivity: 1}
	const engines = 3
	var regions []RegionRate
	for _, leaf := range tree.Leaves() {
		regions = append(regions, RegionRate{Location: string(leaf.ID), Rate: 1})
	}
	part, err := PartitionRegions(regions, engines)
	if err != nil {
		t.Fatal(err)
	}
	routing := NewRoutingTable(RouteByLocation, engines)
	if err := routing.AddPartition("leafArea", part, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	topo, err := BuildTrafficTopology(TrafficConfig{
		Traces: traces, Tree: tree, Engines: engines, Routing: routing, DB: db,
		Telemetry: reg,
		EngineSetup: func(taskIndex int, eng *cep.Engine) ([]*InstalledRule, error) {
			locs := make(map[string]bool)
			for _, r := range part.Engines[taskIndex] {
				locs[r.Location] = true
			}
			inst, err := InstallRule(eng, rule, InstallOptions{
				Strategy: StrategyStream, Store: store, Locations: locs,
			})
			if err != nil {
				return nil, err
			}
			return []*InstalledRule{inst}, nil
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
}
