package core

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"trafficcep/internal/storm"
)

// This file backs the XML topology workflow of §3.2: "Users in our
// framework complete an XML file that includes the description of the
// submitted topology (e.g., spouts, bolts) along with the Esper rules they
// want to apply to the incoming raw data."

// TopologyXML is the Figure 8 topology as the paper's users would submit
// it: the document trafficd runs by default and BuildTrafficTopology builds
// from. Read-only.
//
//go:embed topology.xml
var TopologyXML []byte

// Deps carries the shared runtime objects the traffic components need; the
// XML file contributes structure and parallelism, the application supplies
// the data-plane dependencies.
type Deps struct {
	Config TrafficConfig
}

// ComponentTypes are the XML type names RegisterComponents binds.
var ComponentTypes = []string{
	"busreader", "preprocess", "areatracker", "busstops", "splitter", "esper", "eventsstorer",
}

// RegisterComponents binds the Figure 8 component implementations into a
// storm XML registry so topologies referencing them can be loaded from XML.
// It is the only place the seven components are constructed. deps.Config is
// read when a topology is built, not here, so it may be completed in between.
func RegisterComponents(reg *storm.Registry, deps *Deps) {
	cfg := &deps.Config
	reg.RegisterSpout("busreader", func(map[string]string) (storm.SpoutFactory, error) {
		return func() storm.Spout { return &busReaderSpout{traces: cfg.Traces} }, nil
	})
	reg.RegisterBolt("preprocess", func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt { return &preProcessBolt{telemetry: cfg.Telemetry} }, nil
	})
	reg.RegisterBolt("areatracker", func(map[string]string) (storm.BoltFactory, error) {
		if cfg.Tree == nil {
			return nil, fmt.Errorf("core: areatracker requires a quadtree")
		}
		return func() storm.Bolt { return &areaTrackerBolt{tree: cfg.Tree} }, nil
	})
	reg.RegisterBolt("busstops", func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt {
			return &busStopsTrackerBolt{stops: cfg.Stops, manager: cfg.Manager}
		}, nil
	})
	reg.RegisterBolt("splitter", func(map[string]string) (storm.BoltFactory, error) {
		table, err := cfg.routingTable()
		if err != nil {
			return nil, err
		}
		return func() storm.Bolt {
			return &splitterBolt{routing: table, reb: cfg.Rebalancer, telemetry: cfg.Telemetry}
		}, nil
	})
	reg.RegisterBolt("esper", func(map[string]string) (storm.BoltFactory, error) {
		table, err := cfg.routingTable()
		if err != nil {
			return nil, err
		}
		return func() storm.Bolt {
			return &esperBolt{
				setup: cfg.EngineSetup, manager: cfg.Manager, telemetry: cfg.Telemetry,
				engines: table.Engines,
			}
		}, nil
	})
	reg.RegisterBolt("eventsstorer", func(map[string]string) (storm.BoltFactory, error) {
		if err := EnsureEventsTable(cfg.DB); err != nil {
			return nil, err
		}
		return func() storm.Bolt { return &eventsStorerBolt{db: cfg.DB} }, nil
	})
}

// routingTable is the table the Splitter starts from and the engine tasks
// are counted against: the rebalancer's when one is set, else Routing.
func (cfg *TrafficConfig) routingTable() (*RoutingTable, error) {
	if cfg.Rebalancer != nil {
		table := cfg.Rebalancer.Table()
		if cfg.Routing != nil && cfg.Routing != table {
			return nil, fmt.Errorf("core: both Routing and Rebalancer set with different tables")
		}
		return table, nil
	}
	if cfg.Routing == nil {
		return nil, fmt.Errorf("core: splitter and engines require a routing table")
	}
	return cfg.Routing, nil
}

// RuleFromDef converts an XML template-rule declaration into a core.Rule.
func RuleFromDef(def storm.RuleDef) (Rule, error) {
	r := Rule{
		Name:        def.Name,
		Attribute:   def.Attribute,
		Window:      def.Window,
		Sensitivity: def.Sensitivity,
	}
	switch {
	case def.Location == "" || def.Location == "leaves":
		r.Kind = QuadtreeLeaves
	case def.Location == "stops":
		r.Kind = BusStops
	case strings.HasPrefix(def.Location, "layer"):
		n, err := strconv.Atoi(strings.TrimPrefix(def.Location, "layer"))
		if err != nil {
			return Rule{}, fmt.Errorf("core: rule %q has bad location %q", def.Name, def.Location)
		}
		r.Kind = QuadtreeLayer
		r.Layer = n
	default:
		return Rule{}, fmt.Errorf("core: rule %q has unknown location %q", def.Name, def.Location)
	}
	if r.Window <= 0 {
		r.Window = 10
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}
