package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/denclue"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// This file implements the seven components of the traffic-monitoring
// topology of Figure 8: BusReader spout → PreProcess → AreaTracker →
// BusStopsTracker → Splitter → EsperBolt(×N) → EventsStorer. topology.xml
// wires them; RegisterComponents (xml.go) constructs them.
//
// One payload map per trace (DESIGN.md, "Payload ownership"): the spout
// builds the row, sized for everything the pipeline will add; PreProcess,
// AreaTracker and BusStopsTracker each write their fields into that same
// map and re-emit it, which they may do only as the sole receiver of their
// input (storm.TaskContext.ExclusiveInput — otherwise they clone once, see
// enricher). From BusStopsTracker's emit on the row is read-only for
// everyone: the Splitter hands the one map to every engine responsible for
// it, the Rebalancer and the routing table read it, and the engines keep it
// in their windows un-copied.

// Component ids of the Figure 8 topology.
const (
	CompBusReader  = "BusReader"
	CompPreProcess = "PreProcess"
	CompAreaTrack  = "AreaTracker"
	CompBusStops   = "BusStopsTracker"
	CompSplitter   = "Splitter"
	CompEsper      = "EsperBolt"
	CompStorer     = "EventsStorer"
)

// EventsTable is the sqlstore table detected events are stored into.
const EventsTable = "events"

// EventsColumns is the schema of the detections table.
var EventsColumns = []string{"rule", "location", "observed", "threshold", "engine"}

// RoutingMode selects the Splitter's behaviour, covering the Figure 12/13
// comparison.
type RoutingMode int

// Routing modes.
const (
	// RouteByLocation sends each tuple only to the engines responsible
	// for its locations (the paper's approach).
	RouteByLocation RoutingMode = iota
	// RouteAll replicates every tuple to every engine (the "All
	// Grouping" baseline).
	RouteAll
)

// RoutingTable maps tuple locations to EsperBolt task indexes; built from
// Algorithm 1 partitions. A table is built once (AddPartition) and then
// installed; it is immutable afterwards, so it is safe for any number of
// concurrent readers. Runtime routing changes never mutate an installed
// table — the Rebalancer builds a fresh one and swaps it in atomically
// (see rebalance.go).
type RoutingTable struct {
	Mode    RoutingMode
	Engines int

	// fields lists the location fields consulted, in insertion order.
	fields []string
	routes map[string]map[string][]int // field → location → engine tasks
	// taskSets remembers each field's full engine task set as registered
	// by AddPartition, so a rebalance can re-run Algorithm 1 over the same
	// engines even when some currently serve no locations.
	taskSets map[string][]int
}

// NewRoutingTable creates a table for the given engine count.
func NewRoutingTable(mode RoutingMode, engines int) *RoutingTable {
	return &RoutingTable{
		Mode: mode, Engines: engines,
		routes:   make(map[string]map[string][]int),
		taskSets: make(map[string][]int),
	}
}

// AddPartition registers an Algorithm 1 partition for one location field.
// engineTasks maps the partition's engine indexes (0..k-1) to EsperBolt task
// indexes, letting groupings own disjoint engine sets.
func (rt *RoutingTable) AddPartition(field string, p *Partition, engineTasks []int) error {
	if len(engineTasks) != len(p.Engines) {
		return fmt.Errorf("core: partition has %d engines but %d task mappings", len(p.Engines), len(engineTasks))
	}
	m, ok := rt.routes[field]
	if !ok {
		m = make(map[string][]int)
		rt.routes[field] = m
		rt.fields = append(rt.fields, field)
	}
	for _, task := range engineTasks {
		if task < 0 || task >= rt.Engines {
			return fmt.Errorf("core: engine task %d out of range (%d engines)", task, rt.Engines)
		}
		rt.taskSets[field] = appendUnique(rt.taskSets[field], task)
	}
	for loc, e := range p.ByLocation {
		m[loc] = appendUnique(m[loc], engineTasks[e])
	}
	return nil
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// EnginesFor returns the EsperBolt task indexes a tuple must reach, based
// on its location field values. Under RouteAll it is always every engine.
// An empty result means the tuple is unroutable (its location fields are
// missing or unknown to every partition); the Splitter records such tuples
// as drops so per-edge accounting stays closed.
func (rt *RoutingTable) EnginesFor(values map[string]any) []int {
	if rt.Mode == RouteAll {
		all := make([]int, rt.Engines)
		for i := range all {
			all[i] = i
		}
		return all
	}
	var out []int
	for _, f := range rt.fields {
		loc, _ := values[f].(string)
		if loc == "" {
			continue
		}
		for _, task := range rt.routes[f][loc] {
			out = appendUnique(out, task)
		}
	}
	sort.Ints(out)
	return out
}

// Locations returns the locations of field the table routes to engine task
// task: a fresh, non-nil set, empty when the task serves none of them (an
// InstallOptions.Locations restriction to nothing yet).
func (rt *RoutingTable) Locations(field string, task int) map[string]bool {
	out := make(map[string]bool)
	for loc, tasks := range rt.routes[field] {
		if containsInt(tasks, task) {
			out[loc] = true
		}
	}
	return out
}

// TrafficConfig assembles a runnable Figure 8 topology.
type TrafficConfig struct {
	// Traces is the input feed, replayed at full speed (§5).
	Traces []busdata.Trace
	// SpoutTasks is the BusReader parallelism BuildTrafficTopology sets (an
	// XML document states its own); defaults to 1. Tasks split
	// the feed round-robin, so any value above 1 delivers one vehicle's
	// traces to PreProcess out of order: its speed and actual-delay deltas,
	// and every detection derived from them, stop being reproducible.
	SpoutTasks int
	// Tree is the Region Quadtree for the AreaTracker.
	Tree *quadtree.Tree
	// Stops is the DENCLUE result for the BusStopsTracker; optional (the
	// raw reported stop id is used when nil).
	Stops *denclue.Result
	// Engines is the EsperBolt parallelism BuildTrafficTopology sets (an XML
	// document states its own); defaults to 1.
	Engines int
	// Routing drives the Splitter; its Engines must equal the EsperBolt
	// task count. BuildTrafficTopology defaults it to RouteAll.
	Routing *RoutingTable
	// Rebalancer, when set, takes over routing: the Splitter, which must
	// then run one task, reads the rebalancer's current table (Table,
	// seeded from its initial one), feeds observed locations into its rate
	// estimators and hands ownership over on a swap. A migration installs
	// no rule: an engine that gains locations loads their thresholds into
	// the rules it already has. So EngineSetup must install every rule on
	// every engine, restricted to the locations the initial table routes
	// there (RoutingTable.Locations; possibly none). Routing must be nil or
	// the rebalancer's own initial table.
	Rebalancer *Rebalancer
	// EngineSetup installs rules into task taskIndex's engine. The
	// returned installations are refreshed by Manager (may be nil).
	EngineSetup func(taskIndex int, eng *cep.Engine) ([]*InstalledRule, error)
	// DB receives detected events (EventsTable is created if missing).
	DB *sqlstore.DB
	// Manager, when set, receives history records from the
	// BusStopsTracker and registers rule installations for refresh.
	Manager *DynamicManager
	// Telemetry, when set, backs every EsperBolt task's engine with the
	// registry (per-engine event-latency histograms, engine sources) and
	// counts the Splitter's unroutable tuples (core.splitter.unrouted), in
	// addition to the storm runtime's tuple tracing.
	Telemetry *telemetry.Registry
}

// BuildTrafficTopology builds the shipped Figure 8 document (TopologyXML)
// through RegisterComponents, with the BusReader and EsperBolt parallelism
// taken from cfg instead of the document.
func BuildTrafficTopology(cfg TrafficConfig) (*storm.Topology, error) {
	reg := storm.NewRegistry()
	deps := &Deps{Config: cfg}
	RegisterComponents(reg, deps)
	return buildTrafficTopology(&deps.Config, reg)
}

// buildTrafficTopology fills in cfg's defaults and builds the document over
// reg, whose components RegisterComponents bound to cfg (they read it at
// build time, after the defaults).
func buildTrafficTopology(cfg *TrafficConfig, reg *storm.Registry) (*storm.Topology, error) {
	if cfg.Engines <= 0 {
		cfg.Engines = 1
	}
	if cfg.SpoutTasks <= 0 {
		cfg.SpoutTasks = 1
	}
	if cfg.Routing == nil && cfg.Rebalancer == nil {
		cfg.Routing = NewRoutingTable(RouteAll, cfg.Engines)
	}
	xt, err := storm.ParseXML(TopologyXML)
	if err != nil {
		return nil, err
	}
	setParallelism(xt.Spouts, CompBusReader, cfg.SpoutTasks)
	setParallelism(xt.Bolts, CompEsper, cfg.Engines)
	return xt.Build(reg)
}

// setParallelism gives component id of a parsed document n executors and n
// tasks (one engine per task, §3.2).
func setParallelism(comps []storm.XMLComponent, id string, n int) {
	for i := range comps {
		if comps[i].ID == id {
			comps[i].Executors, comps[i].Tasks = n, n
		}
	}
}

// busReaderSpout replays a trace slice; task i of n emits traces i, i+n, …
// (§4.3.2: "the traces are stored in csv files so we use this spout for
// reading the stored data").
type busReaderSpout struct {
	traces []busdata.Trace
	idx    int
	step   int
}

func (s *busReaderSpout) Open(ctx storm.TaskContext) error {
	s.idx = ctx.TaskIndex
	s.step = ctx.NumTasks
	if s.step <= 0 {
		s.step = 1
	}
	return nil
}

func (s *busReaderSpout) Close() error { return nil }

func (s *busReaderSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.idx >= len(s.traces) {
		return false, nil
	}
	tr := &s.traces[s.idx]
	vals := tr.FillValues(busdata.GetValues())
	// With ack tracking on (trafficd -ack.timeout) anchor each trace under
	// its position in the feed, so lost tuples are replayed at-least-once.
	if ac, ok := col.(storm.AnchorCollector); ok && ac.Acking() {
		ac.EmitAnchored(strconv.Itoa(s.idx), vals)
	} else {
		col.Emit(vals)
	}
	s.idx += s.step
	return s.idx < len(s.traces), nil
}

// Ack implements storm.AckingSpout; the trace feed keeps no redelivery
// state, so a drained tuple tree needs no action.
func (s *busReaderSpout) Ack(string) {}

// Fail implements storm.AckingSpout: expired tuples were already counted as
// dropped by the runtime.
func (s *busReaderSpout) Fail(string) {}

// Checkpoint implements storm.ReplayableSpout: the replay position is the
// index of the next trace to emit.
func (s *busReaderSpout) Checkpoint() []byte {
	return binary.AppendUvarint(nil, uint64(s.idx))
}

// Restore implements storm.ReplayableSpout: under storm.AckEpoch a rewind
// re-emits every trace from the checkpointed index on.
func (s *busReaderSpout) Restore(snap []byte) {
	if idx, n := binary.Uvarint(snap); n > 0 {
		s.idx = int(idx)
	}
}

// enricher is the part the three enrichment bolts share: whether the row
// may be written in place is a fact of the topology the task runs in,
// looked up once in Prepare. The zero value clones, which is always safe.
type enricher struct {
	inPlace bool
}

func (e *enricher) Prepare(ctx storm.TaskContext) error {
	e.inPlace = ctx.ExclusiveInput
	return nil
}

// row returns the map the bolt writes its fields into and emits: the input
// itself when this task is its only receiver, a clone when another
// subscriber, or another task under an all grouping, reads it too.
func (e *enricher) row(t storm.Tuple) map[string]any {
	if e.inPlace {
		return t.Values
	}
	return cloneValues(t.Values)
}

// preProcessBolt adds speed, actual delay and heading (§3.1).
type preProcessBolt struct {
	enricher
	pre *busdata.Preprocessor
	// telemetry, when set, collects the task as a source of
	// core.preprocess.out_of_order; published is the part of its
	// preprocessor's count already added there.
	telemetry *telemetry.Registry
	published atomic.Uint64
}

func (b *preProcessBolt) Prepare(ctx storm.TaskContext) error {
	b.pre = busdata.NewPreprocessor()
	if b.telemetry != nil {
		b.telemetry.Register(b)
	}
	return b.enricher.Prepare(ctx)
}

// Describe implements telemetry.Source.
func (b *preProcessBolt) Describe() string {
	return "PreProcess task: traces not after their vehicle's previous one"
}

// Collect implements telemetry.Source: it adds the traces the task found out
// of order since the last collection to core.preprocess.out_of_order, the
// sum over every PreProcess task.
func (b *preProcessBolt) Collect(reg *telemetry.Registry) {
	n := b.pre.OutOfOrder()
	reg.Counter("core.preprocess.out_of_order").Add(n - b.published.Swap(n))
}

func (b *preProcessBolt) Cleanup() error { return nil }

func (b *preProcessBolt) Execute(t storm.Tuple, col storm.Collector) error {
	tr, err := tupleToTrace(t.Values)
	if err != nil {
		return err
	}
	e := b.pre.Process(tr)
	out := b.row(t)
	out["speed"] = e.SpeedKmh
	out["actualDelay"] = e.ActualDelay
	out["heading"] = e.Heading
	col.Emit(out)
	return nil
}

func tupleToTrace(v map[string]any) (busdata.Trace, error) {
	ts, ok := cep.Numeric(v["ts"])
	if !ok {
		return busdata.Trace{}, fmt.Errorf("core: tuple has no numeric ts: %v", v["ts"])
	}
	lat, _ := cep.Numeric(v["lat"])
	lon, _ := cep.Numeric(v["lon"])
	delay, _ := cep.Numeric(v["delay"])
	cong, _ := cep.Numeric(v["congestion"])
	dir, _ := v["direction"].(bool)
	line, _ := v["lineId"].(string)
	stop, _ := v["busStop"].(string)
	vid, _ := v["vehicleId"].(string)
	return busdata.Trace{
		Timestamp:  time.Unix(int64(ts), 0).UTC(),
		LineID:     line,
		Direction:  dir,
		Pos:        geo.Point{Lat: lat, Lon: lon},
		Delay:      delay,
		Congestion: cong != 0,
		BusStop:    stop,
		VehicleID:  vid,
	}, nil
}

func cloneValues(v map[string]any) map[string]any {
	out := make(map[string]any, len(v)+8)
	for k, val := range v {
		out[k] = val
	}
	return out
}

// areaTrackerBolt attaches the quadtree path: the leaf area plus one field
// per layer ("Each task of this bolt has an instance of the Region Quadtree
// and queries it to find the areas that the new trace belongs", §4.3.2).
type areaTrackerBolt struct {
	enricher
	tree *quadtree.Tree
	// layerFields[i] is the field name of quadtree layer i, rendered once
	// per task and grown when a deeper path shows up.
	layerFields []string
}

func (b *areaTrackerBolt) Cleanup() error { return nil }

func (b *areaTrackerBolt) Execute(t storm.Tuple, col storm.Collector) error {
	lat, _ := cep.Numeric(t.Values["lat"])
	lon, _ := cep.Numeric(t.Values["lon"])
	path := b.tree.Path(geo.Point{Lat: lat, Lon: lon})
	out := b.row(t)
	if len(path) > 0 {
		for i := len(b.layerFields); i < len(path); i++ {
			b.layerFields = append(b.layerFields, Rule{Kind: QuadtreeLayer, Layer: i}.LocationField())
		}
		areas := make([]string, len(path))
		for i, n := range path {
			areas[i] = string(n.ID)
			out[b.layerFields[i]] = string(n.ID)
		}
		out["leafArea"] = string(path[len(path)-1].ID)
		out["areaPath"] = areas
	}
	col.Emit(out)
	return nil
}

// busStopsTrackerBolt resolves the de-noised bus stop (§4.1.2) and, as the
// last enrichment step, folds the record into the batch layer's history
// partials.
type busStopsTrackerBolt struct {
	enricher
	stops   *denclue.Result
	manager *DynamicManager
}

func (b *busStopsTrackerBolt) Cleanup() error { return nil }

func (b *busStopsTrackerBolt) Execute(t storm.Tuple, col storm.Collector) error {
	out := b.row(t)
	stopID, _ := out["busStop"].(string)
	if b.stops != nil {
		lat, _ := cep.Numeric(out["lat"])
		lon, _ := cep.Numeric(out["lon"])
		line, _ := out["lineId"].(string)
		dir, _ := out["direction"].(bool)
		if s, ok := b.stops.NearestStop(line, dir, geo.Point{Lat: lat, Lon: lon}); ok {
			stopID = fmt.Sprintf("stop%04d", s.ID)
		}
	}
	out["stopId"] = stopID

	if b.manager != nil {
		if err := b.manager.AppendHistory(historyFromValues(out)); err != nil {
			return err
		}
	}
	col.Emit(out)
	return nil
}

func historyFromValues(v map[string]any) HistoryRecord {
	hour, _ := cep.Numeric(v["hour"])
	delay, _ := cep.Numeric(v["delay"])
	actual, _ := cep.Numeric(v["actualDelay"])
	speed, _ := cep.Numeric(v["speed"])
	cong, _ := cep.Numeric(v["congestion"])
	day := busdata.Weekday
	if v["day"] == busdata.Weekend.String() {
		day = busdata.Weekend
	}
	stop, _ := v["stopId"].(string)
	areas, _ := v["areaPath"].([]string)
	return HistoryRecord{
		Hour: int(hour), Day: day, StopID: stop, Areas: areas,
		Delay: delay, ActualDelay: actual, Speed: speed, Congestion: cong != 0,
	}
}

// splitterBolt routes tuples to EsperBolt tasks per the routing table
// (§4.3.2: "It is crucial to route each bus data tuple to the appropriate
// Esper engine as each engine examines different spatial locations"). With
// a Rebalancer it reads the live swappable table, feeds the rate estimators
// and hands ownership over when the table changes; rebalance cycles never
// run on its goroutine.
type splitterBolt struct {
	// routing is the table the Splitter routes under: the static one, or the
	// rebalancer's table as of the last tuple.
	routing   *RoutingTable
	reb       *Rebalancer
	telemetry *telemetry.Registry

	unrouted *telemetry.Counter
}

func (b *splitterBolt) Prepare(ctx storm.TaskContext) error {
	if b.reb != nil && ctx.NumTasks != 1 {
		return fmt.Errorf("core: %s runs %d tasks, but under a rebalancer it must run one: ownership changes travel on its edges and its rate estimates must see the whole feed", CompSplitter, ctx.NumTasks)
	}
	if b.telemetry != nil {
		b.unrouted = b.telemetry.Counter("core.splitter.unrouted")
	}
	return nil
}

func (b *splitterBolt) Cleanup() error { return nil }

func (b *splitterBolt) Execute(t storm.Tuple, col storm.Collector) error {
	if b.reb != nil {
		b.reb.Observe(t.Values)
		if rt := b.reb.Table(); rt != b.routing {
			b.handOver(b.routing, rt, col)
			b.routing = rt
		}
	}
	tasks := b.routing.EnginesFor(t.Values)
	if len(tasks) == 0 {
		// Unroutable tuple (missing or unknown location fields): account
		// for it instead of letting it vanish — count it and record a drop
		// so emitted = executed + dropped closes on the splitter edge.
		if b.unrouted != nil {
			b.unrouted.Inc()
		}
		if dr, ok := col.(storm.DropReporter); ok {
			dr.ReportDrop()
		}
		return nil
	}
	// A bolt's direct emit rides its input's tuple tree, so under an ack
	// mode a failed engine execute is replayed like any other.
	for _, task := range tasks {
		col.EmitDirect("routed", task, t.Values)
	}
	return nil
}

// handOver moves ownership in-band: ahead of the first tuple routed under
// fresh, every engine task whose locations changed since old gets, on the
// routed edge, one ownership tuple per changed field with the locations it
// gains and loses. Per-edge FIFO makes that the exact cut: each engine
// applies it after every row routed to it under old and before any row
// routed under fresh.
func (b *splitterBolt) handOver(old, fresh *RoutingTable, col storm.Collector) {
	adds, rems := groupMoves(diffTables(old, fresh, b.reb.fields))
	for task, byField := range adds {
		for field, gained := range byField {
			col.EmitDirect("routed", task, map[string]any{ownField: field, ownGained: gained, ownLost: rems[task][field]})
			delete(rems[task], field)
		}
	}
	for task, byField := range rems {
		for field, lost := range byField {
			col.EmitDirect("routed", task, map[string]any{ownField: field, ownLost: lost})
		}
	}
}

// esperBolt hosts one CEP engine per task. EngineSetup installs the task's
// rules; the bolt then attaches a forwarding listener to every installed
// statement so detections flow downstream to the EventsStorer. The engine
// processes events synchronously inside Execute, so the listener always
// sees the current collector.
type esperBolt struct {
	setup     func(taskIndex int, eng *cep.Engine) ([]*InstalledRule, error)
	manager   *DynamicManager
	telemetry *telemetry.Registry
	// engines is the routing table's engine count: the task indexes the
	// Splitter addresses.
	engines int

	engine   *cep.Engine
	installs []*InstalledRule // what setup installed into engine
	ctx      storm.TaskContext

	mu  sync.Mutex
	col storm.Collector
}

func (b *esperBolt) Prepare(ctx storm.TaskContext) error {
	if ctx.NumTasks != b.engines {
		return fmt.Errorf("core: %s runs %d tasks but the routing table addresses %d engines", CompEsper, ctx.NumTasks, b.engines)
	}
	b.ctx = ctx
	var opts []cep.Option
	if b.telemetry != nil {
		opts = append(opts,
			cep.WithRegistry(b.telemetry),
			cep.WithName(fmt.Sprintf("cep.engine%d", ctx.TaskIndex)))
	}
	b.engine = cep.New(opts...)
	if b.telemetry != nil {
		b.telemetry.Register(b.engine)
	}
	if b.setup != nil {
		var err error
		b.installs, err = b.setup(ctx.TaskIndex, b.engine)
		if err != nil {
			return fmt.Errorf("core: engine %d setup: %w", ctx.TaskIndex, err)
		}
		forward := b.forwardListener()
		for _, inst := range b.installs {
			inst.AddListener(forward)
			if b.manager != nil {
				b.manager.Register(inst)
			}
		}
	}
	return nil
}

// forwardListener emits each rule firing as a detection tuple.
func (b *esperBolt) forwardListener() cep.Listener {
	return func(st *cep.Statement, outs []cep.Output) {
		b.mu.Lock()
		col := b.col
		b.mu.Unlock()
		if col == nil {
			return
		}
		for _, o := range outs {
			col.Emit(map[string]any{
				"rule":      st.Name,
				"location":  o.Fields["location"],
				"observed":  o.Fields["observed"],
				"threshold": o.Fields["threshold"],
				"engine":    float64(b.ctx.TaskIndex),
			})
		}
	}
}

func (b *esperBolt) Cleanup() error { return nil }

func (b *esperBolt) Execute(t storm.Tuple, col storm.Collector) error {
	if field, ok := t.Values[ownField].(string); ok {
		return b.own(field, t.Values)
	}
	b.mu.Lock()
	b.col = col
	b.mu.Unlock()

	// The row goes to the engine as it is (cep.Value is any): the engine
	// keeps it in its windows and only reads it, as do the other engines
	// the Splitter gave it to.
	ts, _ := cep.Numeric(t.Values["ts"])
	return b.engine.SendEventAt(BusStream, time.Unix(int64(ts), 0).UTC(), t.Values)
}

// own applies an ownership tuple (splitterBolt.handOver): from the next row
// on, the engine's rules on field window and evaluate what it owns now. The
// restricted rules on field load the thresholds of the locations the engine
// newly gains first; a location it already owned has them, and so does one
// it owned before under the same statements.
func (b *esperBolt) own(field string, values map[string]any) error {
	gained, _ := values[ownGained].([]string)
	lost, _ := values[ownLost].([]string)
	if added := b.engine.Own(BusStream, field, gained...); len(added) > 0 {
		set := make(map[string]bool, len(added))
		for _, l := range added {
			set[l] = true
		}
		for _, inst := range b.installs {
			if inst.restricted() && inst.Rule.LocationField() == field {
				if err := inst.loadThresholds(set); err != nil {
					return fmt.Errorf("core: engine %d loading thresholds of rule %q: %w", b.ctx.TaskIndex, inst.Rule.Name, err)
				}
			}
		}
	}
	b.engine.Disown(BusStream, field, lost...)
	return nil
}

// EnsureEventsTable creates the detections table in db if missing. A nil db
// is a no-op (detections are then dropped by the storer).
func EnsureEventsTable(db *sqlstore.DB) error {
	if db == nil {
		return nil
	}
	for _, t := range db.TableNames() {
		if t == EventsTable {
			return nil
		}
	}
	return db.CreateTable(EventsTable, EventsColumns)
}

// eventsStorerBolt inserts every detection into the storage medium
// (EventsStorer of Figure 8: "stores them to a pre-decided storage medium,
// in our case a MySQL server").
type eventsStorerBolt struct {
	db *sqlstore.DB
}

func (b *eventsStorerBolt) Prepare(storm.TaskContext) error { return nil }
func (b *eventsStorerBolt) Cleanup() error                  { return nil }

func (b *eventsStorerBolt) Execute(t storm.Tuple, _ storm.Collector) error {
	if b.db == nil {
		return nil
	}
	row := sqlstore.Row{}
	for _, c := range EventsColumns {
		row[c] = t.Values[c]
	}
	return b.db.Insert(EventsTable, row)
}
