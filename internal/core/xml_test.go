package core

import (
	"strings"
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/storm"
)

func TestRuleFromDefKinds(t *testing.T) {
	cases := []struct {
		loc  string
		kind LocationKind
		layr int
	}{
		{"", QuadtreeLeaves, 0},
		{"leaves", QuadtreeLeaves, 0},
		{"stops", BusStops, 0},
		{"layer2", QuadtreeLayer, 2},
		{"layer0", QuadtreeLayer, 0},
	}
	for _, c := range cases {
		r, err := RuleFromDef(storm.RuleDef{
			Name: "r", Attribute: busdata.AttrDelay, Location: c.loc, Window: 5,
		})
		if err != nil {
			t.Fatalf("%q: %v", c.loc, err)
		}
		if r.Kind != c.kind || r.Layer != c.layr {
			t.Errorf("%q: kind=%v layer=%d", c.loc, r.Kind, r.Layer)
		}
	}
}

func TestRuleFromDefErrors(t *testing.T) {
	cases := []storm.RuleDef{
		{Name: "r"},                     // no attribute
		{Name: "r", Attribute: "ghost"}, // unknown attribute
		{Name: "r", Attribute: busdata.AttrDelay, Location: "layerX"}, // bad layer
		{Name: "r", Attribute: busdata.AttrDelay, Location: "orbit"},  // unknown location
	}
	for i, def := range cases {
		if _, err := RuleFromDef(def); err == nil {
			t.Errorf("case %d: expected error for %+v", i, def)
		}
	}
}

func TestRuleFromDefDefaultWindow(t *testing.T) {
	r, err := RuleFromDef(storm.RuleDef{Name: "r", Attribute: busdata.AttrSpeed})
	if err != nil {
		t.Fatal(err)
	}
	if r.Window != 10 {
		t.Fatalf("default window = %d", r.Window)
	}
}

func TestRegisterComponentsXMLRoundTrip(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 10, 3)
	deps := &Deps{Config: TrafficConfig{
		Traces:  traces,
		Tree:    tree,
		Routing: NewRoutingTable(RouteAll, 2),
	}}
	reg := storm.NewRegistry()
	RegisterComponents(reg, deps)

	xml := `<topology name="t">
	  <spout id="BusReader" type="busreader"/>
	  <bolt id="PreProcess" type="preprocess"><grouping type="fields" source="BusReader" fields="vehicleId"/></bolt>
	  <bolt id="AreaTracker" type="areatracker"><grouping source="PreProcess"/></bolt>
	  <bolt id="BusStopsTracker" type="busstops"><grouping source="AreaTracker"/></bolt>
	  <bolt id="Splitter" type="splitter"><grouping source="BusStopsTracker"/></bolt>
	  <bolt id="EsperBolt" type="esper" executors="2" tasks="2"><grouping type="direct" source="Splitter" stream="routed"/></bolt>
	  <bolt id="EventsStorer" type="eventsstorer"><grouping source="EsperBolt"/></bolt>
	</topology>`
	topo, _, err := storm.LoadXML([]byte(xml), reg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := storm.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	totals := rt.Monitor().TotalsByComponent()
	for _, tot := range totals {
		if tot.Component == CompEsper && tot.Executed != uint64(2*len(traces)) {
			t.Fatalf("esper executed %d, want %d (RouteAll × 2 engines)", tot.Executed, 2*len(traces))
		}
	}
}

func TestRegisterComponentsMissingDeps(t *testing.T) {
	deps := &Deps{Config: TrafficConfig{}} // no tree, no routing
	reg := storm.NewRegistry()
	RegisterComponents(reg, deps)
	xml := `<topology name="t">
	  <spout id="s" type="busreader"/>
	  <bolt id="a" type="areatracker"><grouping source="s"/></bolt>
	</topology>`
	_, _, err := storm.LoadXML([]byte(xml), reg)
	if err == nil || !strings.Contains(err.Error(), "quadtree") {
		t.Fatalf("err = %v", err)
	}
	xml2 := `<topology name="t">
	  <spout id="s" type="busreader"/>
	  <bolt id="sp" type="splitter"><grouping source="s"/></bolt>
	</topology>`
	_, _, err = storm.LoadXML([]byte(xml2), reg)
	if err == nil || !strings.Contains(err.Error(), "routing") {
		t.Fatalf("err = %v", err)
	}

	// A table for fewer engines than the document runs: the Splitter could
	// never address the extra tasks, so they refuse to start.
	deps.Config.Routing = NewRoutingTable(RouteAll, 2)
	xml3 := `<topology name="t">
	  <spout id="s" type="busreader"/>
	  <bolt id="sp" type="splitter"><grouping source="s"/></bolt>
	  <bolt id="e" type="esper" executors="3" tasks="3"><grouping type="direct" source="sp" stream="routed"/></bolt>
	</topology>`
	topo, _, err := storm.LoadXML([]byte(xml3), reg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := storm.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run()
	if err == nil || !strings.Contains(err.Error(), "3 tasks") || !strings.Contains(err.Error(), "2 engines") {
		t.Fatalf("err = %v, want the task count and the table's engine count", err)
	}

	// Under a rebalancer the Splitter runs one task: ownership changes
	// travel on its edges, and its rate estimates must see the whole feed.
	reb, err := NewRebalancer(RebalancerConfig{
		Routing: tableFromRates(t, "leafArea", []RegionRate{{Location: "a", Rate: 1}, {Location: "b", Rate: 1}}, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	deps.Config.Routing, deps.Config.Rebalancer = nil, reb
	xml4 := `<topology name="t">
	  <spout id="s" type="busreader"/>
	  <bolt id="sp" type="splitter" executors="2" tasks="2"><grouping source="s"/></bolt>
	  <bolt id="e" type="esper" executors="2" tasks="2"><grouping type="direct" source="sp" stream="routed"/></bolt>
	</topology>`
	if topo, _, err = storm.LoadXML([]byte(xml4), reg); err != nil {
		t.Fatal(err)
	}
	if rt, err = storm.New(topo); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err == nil || !strings.Contains(err.Error(), "Splitter runs 2 tasks") {
		t.Fatalf("err = %v, want the Splitter's task count", err)
	}
}
