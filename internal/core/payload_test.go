package core

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
)

// Tests of the one-map-per-trace data plane (DESIGN.md, "Payload
// ownership"): nobody writes to a row once it is shared, the enrichers fall
// back to cloning when the topology makes their input shared, the pipeline
// detects exactly what a clone-per-hop reference detects, and the hot path
// allocates no map.

// payloadRig is a small Figure-8 world over the shipped topology.xml: a
// feed, a quadtree, three rules covering both location kinds and all three
// enrichment stages, Algorithm-1 partitions over the XML's engines, and
// thresholds so low that every evaluation with a full window fires.
type payloadRig struct {
	xml     []byte
	engines int
	traces  []busdata.Trace
	cfg     TrafficConfig // Tree and Routing; DB and EngineSetup are per run
	rules   []Rule
	parts   map[string]*Partition // location field → partition
	stats   []sqlstore.StatRow
}

func newPayloadRig(t *testing.T, window int) *payloadRig {
	t.Helper()
	xml := TopologyXML
	parsed, err := storm.ParseXML(xml)
	if err != nil {
		t.Fatal(err)
	}
	r := &payloadRig{xml: xml, traces: genTraces(t, 30, 5), parts: map[string]*Partition{}}
	for _, b := range parsed.Bolts {
		if b.ID == CompEsper {
			r.engines = b.Tasks
		}
	}
	if r.engines < 2 {
		t.Fatalf("shipped topology runs %d engines; the payload tests need a fan-out", r.engines)
	}
	r.cfg.Tree = buildTestTree(t)
	r.rules = []Rule{
		{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: window, Sensitivity: 1},
		{Name: "leafSpeed", Attribute: busdata.AttrSpeed, Kind: QuadtreeLeaves, Window: window, Sensitivity: 1},
		{Name: "stopActual", Attribute: busdata.AttrActualDelay, Kind: BusStops, Window: window, Sensitivity: 1},
	}

	locations := map[string][]string{}
	for _, leaf := range r.cfg.Tree.Leaves() {
		locations["leafArea"] = append(locations["leafArea"], string(leaf.ID))
	}
	stops := map[string]bool{}
	for _, tr := range r.traces {
		if !stops[tr.BusStop] {
			stops[tr.BusStop] = true
			locations["stopId"] = append(locations["stopId"], tr.BusStop)
		}
	}
	sort.Strings(locations["stopId"])

	tasks := make([]int, r.engines)
	for i := range tasks {
		tasks[i] = i
	}
	r.cfg.Routing = NewRoutingTable(RouteByLocation, r.engines)
	for _, field := range []string{"leafArea", "stopId"} {
		rates := make([]RegionRate, len(locations[field]))
		for i, loc := range locations[field] {
			rates[i] = RegionRate{Location: loc, Rate: 1}
		}
		// Rotate the stop partition so that a trace's leaf and stop mostly
		// live on different engines: that is the fan-out.
		part, err := PartitionRegions(rates, r.engines)
		if err != nil {
			t.Fatal(err)
		}
		r.parts[field] = part
		mapped := tasks
		if field == "stopId" {
			mapped = append(append([]int(nil), tasks[1:]...), tasks[0])
		}
		if err := r.cfg.Routing.AddPartition(field, part, mapped); err != nil {
			t.Fatal(err)
		}
	}
	for _, rule := range r.rules {
		for _, loc := range locations[rule.LocationField()] {
			for h := 0; h < 24; h++ {
				for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
					r.stats = append(r.stats, sqlstore.StatRow{
						Attribute: rule.Attribute, Location: loc, Hour: h, Day: day, Mean: -1e6,
					})
				}
			}
		}
	}
	return r
}

// world returns a fresh events DB and threshold store.
func (r *payloadRig) world(t *testing.T) (*sqlstore.DB, *sqlstore.ThresholdStore) {
	t.Helper()
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(r.stats); err != nil {
		t.Fatal(err)
	}
	return db, store
}

// engineSetup installs engine task's share of every rule — the locations
// the routing table sends it — and then runs extra on the engine.
func (r *payloadRig) engineSetup(store *sqlstore.ThresholdStore, extra func(task int, eng *cep.Engine) error) func(int, *cep.Engine) ([]*InstalledRule, error) {
	return func(task int, eng *cep.Engine) ([]*InstalledRule, error) {
		var out []*InstalledRule
		for _, rule := range r.rules {
			field := rule.LocationField()
			locs := map[string]bool{}
			for loc := range r.parts[field].ByLocation {
				for _, e := range r.cfg.Routing.EnginesFor(map[string]any{field: loc}) {
					if e == task {
						locs[loc] = true
					}
				}
			}
			if len(locs) == 0 {
				continue
			}
			inst, err := InstallRule(eng, rule, InstallOptions{Strategy: StrategyStream, Store: store, Locations: locs})
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
		if extra != nil {
			if err := extra(task, eng); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// pipelineRun is one execution of the rig's topology.
type pipelineRun struct {
	workers int
	opts    []storm.Option
	xml     []byte                                // nil: the shipped topology
	extra   func(task int, eng *cep.Engine) error // per-engine hook after the rules
	mutate  func(reg *storm.Registry, deps *Deps) // registry overrides, per worker
	rts     []*storm.Runtime                      // set by run
	dbs     []*sqlstore.DB                        // set by run
}

// run loads the XML through core.RegisterComponents into one runtime per
// worker (loopback TCP between them) and runs it to completion.
func (p *pipelineRun) run(t *testing.T, r *payloadRig) {
	t.Helper()
	if p.workers == 0 {
		p.workers = 1
	}
	xml := p.xml
	if xml == nil {
		xml = r.xml
	}
	var peers []string
	lns := make([]net.Listener, p.workers)
	if p.workers > 1 {
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i] = ln
			peers = append(peers, ln.Addr().String())
		}
	}
	for w := 0; w < p.workers; w++ {
		db, store := r.world(t)
		deps := &Deps{Config: r.cfg}
		deps.Config.Traces = r.traces
		deps.Config.DB = db
		deps.Config.EngineSetup = r.engineSetup(store, p.extra)
		reg := storm.NewRegistry()
		RegisterComponents(reg, deps)
		if p.mutate != nil {
			p.mutate(reg, deps)
		}
		topo, _, err := storm.LoadXML(xml, reg)
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]storm.Option(nil), p.opts...)
		if p.workers > 1 {
			opts = append(opts, storm.WithWorker(w, peers), storm.WithListener(lns[w]))
		}
		rt, err := storm.New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		p.rts = append(p.rts, rt)
		p.dbs = append(p.dbs, db)
	}
	errs := make([]error, p.workers)
	var wg sync.WaitGroup
	for w, rt := range p.rts {
		wg.Add(1)
		go func(w int, rt *storm.Runtime) {
			defer wg.Done()
			errs[w] = rt.Run()
		}(w, rt)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pipeline did not drain")
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

func detectionKey(v map[string]any) string {
	return fmt.Sprintf("%v|%v|%v|%v", v["rule"], v["location"], v["observed"], v["threshold"])
}

// detections is the multiset of stored detections over all workers.
func (p *pipelineRun) detections(t *testing.T) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, db := range p.dbs {
		rows, err := db.Query(`SELECT rule, location, observed, threshold FROM events`)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			out[detectionKey(row)]++
		}
	}
	return out
}

// captureCollector records what a bolt driven by hand emits.
type captureCollector struct {
	emitted []map[string]any
}

func (c *captureCollector) Emit(v map[string]any)                  { c.emitted = append(c.emitted, v) }
func (c *captureCollector) EmitTo(_ string, v map[string]any)      { c.Emit(v) }
func (c *captureCollector) EmitDirect(string, int, map[string]any) { panic("not used") }
func (c *captureCollector) take() (out []map[string]any)           { out, c.emitted = c.emitted, nil; return }
func (c *captureCollector) one(t *testing.T, hop string) map[string]any {
	t.Helper()
	out := c.take()
	if len(out) != 1 {
		t.Fatalf("%s emitted %d tuples for one input", hop, len(out))
	}
	return out[0]
}

// reference runs the feed through the same bolts on one goroutine with a
// fresh map at every hop — a never-prepared enricher clones, and the engine
// hop is cloned here — which is what the pipeline did before rows travelled
// by reference. It returns the detection multiset.
func (r *payloadRig) reference(t *testing.T) map[string]int {
	t.Helper()
	_, store := r.world(t)
	pre := &preProcessBolt{pre: busdata.NewPreprocessor()}
	area := &areaTrackerBolt{tree: r.cfg.Tree}
	stops := &busStopsTrackerBolt{}
	engines := make([]*esperBolt, r.engines)
	for i := range engines {
		engines[i] = &esperBolt{setup: r.engineSetup(store, nil), engines: r.engines}
		if err := engines[i].Prepare(storm.TaskContext{Component: CompEsper, TaskIndex: i, NumTasks: r.engines}); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]int{}
	col := &captureCollector{}
	hop := func(name string, b storm.Bolt, in map[string]any) map[string]any {
		if err := b.Execute(storm.Tuple{Values: in}, col); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		next := col.one(t, name)
		if reflect.ValueOf(next).Pointer() == reflect.ValueOf(in).Pointer() {
			t.Fatalf("%s re-emitted its input: the reference must clone at every hop", name)
		}
		return next
	}
	for i := range r.traces {
		row := r.traces[i].FillValues(map[string]any{})
		row = hop("PreProcess", pre, row)
		row = hop("AreaTracker", area, row)
		row = hop("BusStopsTracker", stops, row)
		for _, e := range r.cfg.Routing.EnginesFor(row) {
			if err := engines[e].Execute(storm.Tuple{Values: cloneValues(row)}, col); err != nil {
				t.Fatal(err)
			}
			for _, det := range col.take() {
				out[detectionKey(det)]++
			}
		}
	}
	return out
}

func diffMultisets(t *testing.T, want, got map[string]int) {
	t.Helper()
	bad := 0
	for k, n := range want {
		if got[k] != n && bad < 5 {
			t.Errorf("detection %q: reference %d, pipeline %d", k, n, got[k])
			bad++
		}
	}
	for k, n := range got {
		if want[k] == 0 && bad < 5 {
			t.Errorf("detection %q: %d in the pipeline, none in the reference", k, n)
			bad++
		}
	}
}

// rowAudit fingerprints every event an engine holds when it first sees it
// and again on every later look: a difference means somebody wrote to a row
// after it was shared.
type rowAudit struct {
	first map[*cep.Event]string
	diffs []string
}

func fingerprint(fields map[string]cep.Value) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, fields[k])
	}
	return b.String()
}

func (a *rowAudit) look(ev *cep.Event) {
	now := fingerprint(ev.Fields)
	if was, seen := a.first[ev]; !seen {
		a.first[ev] = now
	} else if was != now {
		a.diffs = append(a.diffs, fmt.Sprintf("row changed under the engine:\n  was %s\n  now %s", was, now))
	}
}

// recheck looks at every event ever seen once more.
func (a *rowAudit) recheck() []string {
	for ev := range a.first {
		a.look(ev)
	}
	return a.diffs
}

// auditWindow is how many events the audit statement keeps: each event is
// looked at when it arrives, on each of the next auditWindow-1 arrivals —
// the last of which is the one that evicts it — and at shutdown.
const auditWindow = 12

// TestPayloadNotWrittenAfterFanOut runs the shipped topology — four engines,
// two location fields, so most rows reach two engines as the same map — with
// an audit statement in every engine. Run under -race: a write to a shared
// row is also a data race with the engines' reads.
func TestPayloadNotWrittenAfterFanOut(t *testing.T) {
	r := newPayloadRig(t, 10)
	audits := make([]*rowAudit, r.engines)
	run := &pipelineRun{extra: func(task int, eng *cep.Engine) error {
		audits[task] = &rowAudit{first: map[*cep.Event]string{}}
		st, err := eng.AddStatement("audit", fmt.Sprintf(
			`SELECT b.ts AS ts FROM %s.win:length(%d) AS b`, BusStream, auditWindow))
		if err != nil {
			return err
		}
		st.AddListener(func(_ *cep.Statement, outs []cep.Output) {
			for _, o := range outs {
				audits[task].look(o.Row["b"])
			}
		})
		return nil
	}}
	run.run(t, r)

	holders := map[uintptr]int{} // row map → engines holding it
	events := 0
	for task, a := range audits {
		if diffs := a.recheck(); len(diffs) > 0 {
			t.Errorf("engine %d: %d looks found a row changed; the first: %s", task, len(diffs), diffs[0])
		}
		for ev := range a.first {
			holders[reflect.ValueOf(ev.Fields).Pointer()]++
			events++
			if _, ok := ev.Fields["stopId"]; !ok || ev.Fields["speed"] == nil || ev.Fields["leafArea"] == nil {
				t.Fatalf("engine %d got a row some enricher skipped: %v", task, ev.Fields)
			}
		}
	}
	shared := 0
	for _, n := range holders {
		if n > 1 {
			shared++
		}
	}
	if len(holders) != len(r.traces) || shared == 0 || events <= len(holders) {
		t.Fatalf("%d traces arrived as %d distinct rows in %d events, %d of them shared: want one row per trace and a fan-out",
			len(r.traces), len(holders), events, shared)
	}
	if n := len(run.detections(t)); n == 0 {
		t.Fatal("the rules never fired")
	}
}

// TestPayloadAuditCatchesWriteToSharedRow shows what the audit above reports
// when an enricher does write to a row someone else holds: the hops are
// driven by hand, the AreaTracker's output goes to an auditing holder and to
// a BusStopsTracker told — wrongly — that it is the only receiver.
func TestPayloadAuditCatchesWriteToSharedRow(t *testing.T) {
	r := newPayloadRig(t, 1)
	col := &captureCollector{}
	area := &areaTrackerBolt{tree: r.cfg.Tree}
	if err := area.Execute(storm.Tuple{Values: r.traces[0].FillValues(busdata.GetValues())}, col); err != nil {
		t.Fatal(err)
	}
	row := col.one(t, "AreaTracker")
	audit := &rowAudit{first: map[*cep.Event]string{}}
	audit.look(cep.NewEvent(BusStream, time.Time{}, row))

	for _, tc := range []struct {
		exclusive bool
		diffs     int
	}{{false, 0}, {true, 1}} {
		stops := &busStopsTrackerBolt{}
		if err := stops.Prepare(storm.TaskContext{ExclusiveInput: tc.exclusive}); err != nil {
			t.Fatal(err)
		}
		if err := stops.Execute(storm.Tuple{Values: row}, col); err != nil {
			t.Fatal(err)
		}
		if out := col.one(t, "BusStopsTracker"); out["stopId"] == nil {
			t.Fatalf("no stopId in %v", out)
		}
		if got := len(audit.recheck()); got != tc.diffs {
			t.Fatalf("ExclusiveInput=%v: the audit reports %d changed rows, want %d", tc.exclusive, got, tc.diffs)
		}
	}
}

// siblingBolt is a second reader of some stream: it keeps what it is given.
type siblingBolt struct {
	mu        *sync.Mutex
	kept      *[]map[string]any
	exclusive *atomic.Int32 // tasks that were told their input is exclusive
}

func (b *siblingBolt) Prepare(ctx storm.TaskContext) error {
	if ctx.ExclusiveInput {
		b.exclusive.Add(1)
	}
	return nil
}
func (b *siblingBolt) Cleanup() error { return nil }
func (b *siblingBolt) Execute(t storm.Tuple, _ storm.Collector) error {
	b.mu.Lock()
	*b.kept = append(*b.kept, t.Values)
	b.mu.Unlock()
	return nil
}

// TestPayloadSharedInputFallsBackToCloning adds a second subscriber to the
// AreaTracker's stream. The BusStopsTracker is then no longer the only
// receiver of its input and must clone; the sibling must see rows without
// the later hop's field; PreProcess and AreaTracker, still sole receivers,
// keep writing in place; and the detections must not change.
func TestPayloadSharedInputFallsBackToCloning(t *testing.T) {
	r := newPayloadRig(t, 1)
	xml := strings.Replace(string(r.xml), "<rules>",
		`<bolt id="Sibling" type="sibling" executors="1" tasks="1">
    <grouping type="shuffle" source="AreaTracker"/>
  </bolt>
  <rules>`, 1)

	var mu sync.Mutex
	var kept []map[string]any
	var siblingExclusive atomic.Int32
	inPlace := map[string][]*enricher{}
	run := &pipelineRun{xml: []byte(xml), mutate: func(reg *storm.Registry, deps *Deps) {
		cfg := &deps.Config
		track := func(comp string, e *enricher) {
			mu.Lock()
			inPlace[comp] = append(inPlace[comp], e)
			mu.Unlock()
		}
		reg.RegisterBolt("sibling", func(map[string]string) (storm.BoltFactory, error) {
			return func() storm.Bolt { return &siblingBolt{mu: &mu, kept: &kept, exclusive: &siblingExclusive} }, nil
		})
		reg.RegisterBolt("preprocess", func(map[string]string) (storm.BoltFactory, error) {
			return func() storm.Bolt { b := &preProcessBolt{}; track(CompPreProcess, &b.enricher); return b }, nil
		})
		reg.RegisterBolt("areatracker", func(map[string]string) (storm.BoltFactory, error) {
			return func() storm.Bolt { b := &areaTrackerBolt{tree: cfg.Tree}; track(CompAreaTrack, &b.enricher); return b }, nil
		})
		reg.RegisterBolt("busstops", func(map[string]string) (storm.BoltFactory, error) {
			return func() storm.Bolt { b := &busStopsTrackerBolt{}; track(CompBusStops, &b.enricher); return b }, nil
		})
	}}
	run.run(t, r)

	for comp, want := range map[string]bool{CompPreProcess: true, CompAreaTrack: true, CompBusStops: false} {
		if len(inPlace[comp]) == 0 {
			t.Fatalf("%s: no task was built", comp)
		}
		for _, e := range inPlace[comp] {
			if e.inPlace != want {
				t.Errorf("%s writes in place = %v, want %v", comp, e.inPlace, want)
			}
		}
	}
	if siblingExclusive.Load() != 0 {
		t.Error("the sibling was told its input is exclusive")
	}
	if len(kept) != len(r.traces) {
		t.Fatalf("sibling saw %d rows, want %d", len(kept), len(r.traces))
	}
	for _, row := range kept {
		if _, has := row["stopId"]; has || row["leafArea"] == nil || row["speed"] == nil {
			t.Fatalf("sibling's row must carry PreProcess' and AreaTracker's fields and not the BusStopsTracker's: %v", row)
		}
	}
	diffMultisets(t, r.reference(t), run.detections(t))
}

// failOnceBolt fails the first tuple of one vehicle it executes, whichever
// task or worker meets it.
type failOnceBolt struct {
	storm.Bolt
	vehicle string
	tripped *atomic.Bool
}

var errForcedReplay = errors.New("forced failure: replay me")

func (b *failOnceBolt) Execute(t storm.Tuple, col storm.Collector) error {
	if t.Values["vehicleId"] == b.vehicle && b.tripped.CompareAndSwap(false, true) {
		return errForcedReplay
	}
	return b.Bolt.Execute(t, col)
}

// TestPayloadMatchesClonePerHopReference is the differential: the shipped
// topology, rows travelling by reference, must detect exactly the multiset
// the single-goroutine clone-per-hop reference detects — batch {1, 64} ×
// workers {1, 2} × ack {off, xor, epoch}. Window-1 rules fire once per
// routed row whatever the interleaving, so the multiset is deterministic;
// the observed values come from all three enrichment stages. Every xor cell
// forces one replay through PreProcess: the AreaTracker fails a vehicle's
// only trace after PreProcess has already written to the row, and the
// replay — rebuilt from the spout's snapshot — must come out the same
// (a first and only trace enriches to zeros both times).
func TestPayloadMatchesClonePerHopReference(t *testing.T) {
	r := newPayloadRig(t, 1)
	// One trace of a vehicle nobody else is, mid-feed.
	mid := len(r.traces) / 2
	lone := r.traces[mid]
	lone.VehicleID = "Vreplay"
	r.traces = append(r.traces[:mid:mid], append([]busdata.Trace{lone}, r.traces[mid:]...)...)
	want := r.reference(t)
	if len(want) == 0 {
		t.Fatal("the reference detected nothing")
	}

	for _, batch := range []int{1, 64} {
		for _, workers := range []int{1, 2} {
			for _, ack := range []string{"off", "xor", "epoch"} {
				t.Run(fmt.Sprintf("batch=%d/workers=%d/ack=%s", batch, workers, ack), func(t *testing.T) {
					run := &pipelineRun{workers: workers, opts: []storm.Option{storm.WithBatchSize(batch)}}
					var tripped atomic.Bool
					switch ack {
					case "xor":
						// Long enough that nothing times out by itself: a
						// spurious replay would pass PreProcess a second time.
						run.opts = append(run.opts, storm.WithAckTimeout(1500*time.Millisecond),
							storm.WithFailurePolicy(storm.Degrade))
						run.mutate = func(reg *storm.Registry, deps *Deps) {
							tree := deps.Config.Tree
							reg.RegisterBolt("areatracker", func(map[string]string) (storm.BoltFactory, error) {
								return func() storm.Bolt {
									return &failOnceBolt{Bolt: &areaTrackerBolt{tree: tree}, vehicle: lone.VehicleID, tripped: &tripped}
								}, nil
							})
						}
					case "epoch":
						run.opts = append(run.opts, storm.WithAckTimeout(10*time.Second),
							storm.WithAckMode(storm.AckEpoch), storm.WithEpochInterval(10*time.Millisecond))
					}
					run.run(t, r)
					diffMultisets(t, want, run.detections(t))
					if ack == "xor" {
						var replays uint64
						for _, rt := range run.rts {
							replays += rt.FaultTotals().Replays
						}
						if !tripped.Load() || replays != 1 {
							t.Fatalf("forced failure tripped = %v, replays = %d; want exactly the one forced replay", tripped.Load(), replays)
						}
					}
				})
			}
		}
	}
}

// TestHotPathAllocatesNoMap prices one tuple through each enricher, on an
// exclusive edge, and through the EsperBolt up to the engine: what they
// allocate is the boxed values they write, never a map — a sized payload
// map alone is several allocations — and the map that comes out is the map
// that went in.
func TestHotPathAllocatesNoMap(t *testing.T) {
	r := newPayloadRig(t, 1)
	exclusive := storm.TaskContext{ExclusiveInput: true}
	col := &captureCollector{}
	row := r.traces[len(r.traces)/2].FillValues(busdata.GetValues())
	pos := r.traces[len(r.traces)/2].Pos
	layers := len(r.cfg.Tree.Path(pos))
	pathAllocs := int(testing.AllocsPerRun(100, func() { r.cfg.Tree.Path(pos) }))

	price := func(name string, b storm.Bolt, budget int) {
		t.Helper()
		if err := b.Prepare(exclusive); err != nil {
			t.Fatal(err)
		}
		tuple := storm.Tuple{Values: row}
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			col.emitted = col.emitted[:0]
			err = b.Execute(tuple, col)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(col.emitted) == 1 && reflect.ValueOf(col.emitted[0]).Pointer() != reflect.ValueOf(row).Pointer() {
			t.Errorf("%s emitted a copy of its input", name)
		}
		if int(allocs) > budget {
			t.Errorf("%s allocates %.0f objects per tuple, budget %d", name, allocs, budget)
		}
	}
	// speed, actualDelay, heading.
	price("PreProcess", &preProcessBolt{}, 3)
	// The quadtree walk, the areaPath slice, its box, and a boxed string per
	// layer and for leafArea.
	price("AreaTracker", &areaTrackerBolt{tree: r.cfg.Tree}, pathAllocs+layers+3)
	// stopId.
	price("BusStopsTracker", &busStopsTrackerBolt{}, 1)
	if len(row) > 11+3+layers+3 {
		t.Fatalf("the enriched row has %d fields: %v", len(row), row)
	}

	// An engine with no statement does nothing with the event but take it:
	// what is left is the bolt's own work — the event, and the engine's queue.
	esper := &esperBolt{}
	price("EsperBolt", esper, 2)
	var got *cep.Event
	st, err := esper.engine.AddStatement("last", `SELECT b.ts AS ts FROM `+BusStream+`.std:lastevent() AS b`)
	if err != nil {
		t.Fatal(err)
	}
	st.AddListener(func(_ *cep.Statement, outs []cep.Output) { got = outs[0].Row["b"] })
	if err := esper.Execute(storm.Tuple{Values: row}, col); err != nil {
		t.Fatal(err)
	}
	if got == nil || reflect.ValueOf(got.Fields).Pointer() != reflect.ValueOf(row).Pointer() {
		t.Fatal("the engine's event does not hold the tuple's map itself")
	}
}
