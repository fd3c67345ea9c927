package main

// adapter.go is the only file of the benchmark that touches the product: every
// call into trafficcep/internal/... is here, so a change of representation
// (ROADMAP item 2) can see in one place what the benchmark compiles against.
// README.md lists the same API. The rest of the package works on the
// benchmark's own types.

import (
	_ "embed"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/dfs"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

//go:embed topology.xml
var topologyXML []byte

// The order operators are reported in, spout first.
var components = []string{
	core.CompBusReader, core.CompPreProcess, core.CompAreaTrack, core.CompBusStops,
	core.CompSplitter, core.CompEsper, core.CompStorer,
}

const (
	batchSize    = 64
	batchTimeout = time.Millisecond
	// historyStride thins the history the thresholds are bootstrapped from to
	// every eighth report tick of the feed: history and the statistics job cost
	// about 30 µs per record, and the full feed would put ten seconds of
	// MapReduce into every set-up of a saturated run.
	historyStride = 8
)

// world is what trafficd builds before it starts the runtime: the feed, the
// quadtree, the thresholds from the statistics job, the rules and the routing.
type world struct {
	traces []busdata.Trace
	leaf   []string // leaf[i] is the quadtree leaf of traces[i]
	tree   *quadtree.Tree

	db      *sqlstore.DB
	store   *sqlstore.ThresholdStore
	manager *core.DynamicManager
	tel     *telemetry.Registry // nil unless the workload runs with telemetry

	rules      []core.Rule
	engines    int
	tasks      map[string]int               // component id → tasks
	routing    *core.RoutingTable           // splitter table
	engineLocs map[string][]map[string]bool // rule → engine task → locations
}

// buildWorld generates n traces from seed and runs trafficd's off-line steps
// over them.
func buildWorld(seed int64, n int, withTelemetry bool) (*world, error) {
	w := &world{}
	cfg := busdata.DefaultConfig()
	cfg.Seed = seed
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	ticks := (n + cfg.Buses - 1) / cfg.Buses
	w.traces = gen.Generate(time.Duration(ticks) * cfg.ReportPeriod)
	if len(w.traces) < n {
		return nil, fmt.Errorf("generator produced %d traces, want %d", len(w.traces), n)
	}
	w.traces = w.traces[:n]

	// Quadtree over a sample of observed positions, as trafficd seeds it.
	var seeds []geo.Point
	for i, step := 0, n/512+1; i < n; i += step {
		seeds = append(seeds, w.traces[i].Pos)
	}
	w.tree, err = quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8, MaxDepth: 8})
	if err != nil {
		return nil, err
	}

	if withTelemetry {
		w.tel = telemetry.NewRegistry()
	}
	w.db = sqlstore.NewDB()
	w.store, err = sqlstore.NewThresholdStore(w.db)
	if err != nil {
		return nil, err
	}
	w.manager = &core.DynamicManager{FS: dfs.New(dfs.Options{}), Store: w.store, Telemetry: w.tel}
	if w.tel != nil {
		w.db.SetTelemetry(w.tel)
		w.tel.Register(w.manager)
	}

	parsed, err := storm.ParseXML(topologyXML)
	if err != nil {
		return nil, err
	}
	w.tasks = map[string]int{}
	for _, s := range parsed.Spouts {
		w.tasks[s.ID] = s.Tasks
	}
	for _, b := range parsed.Bolts {
		w.tasks[b.ID] = b.Tasks
	}
	w.engines = w.tasks[core.CompEsper]
	for _, xr := range parsed.Rules {
		r, err := core.RuleFromDef(storm.RuleDef{
			Name: xr.Name, Attribute: xr.Attribute, Location: xr.Location,
			Window: xr.Window, Sensitivity: xr.Sensitivity,
		})
		if err != nil {
			return nil, err
		}
		w.rules = append(w.rules, r)
	}

	// One walk of the feed enriches it into history (every historyStride-th
	// tick) and counts tuples per location for Algorithm 1.
	rates := map[string]*core.RateEstimator{}
	for _, r := range w.rules {
		if f := r.LocationField(); f != "stopId" && f != "leafArea" {
			return nil, fmt.Errorf("rule %s: the benchmark routes stops and leaves only, not %s", r.Name, f)
		}
		rates[r.LocationField()] = core.NewRateEstimator(nil, 1)
	}
	w.leaf = make([]string, n)
	pre := busdata.NewPreprocessor()
	for i := range w.traces {
		tr := &w.traces[i]
		e := pre.Process(*tr)
		path := w.tree.Path(tr.Pos)
		if len(path) == 0 {
			return nil, fmt.Errorf("trace %d lies outside the quadtree", i)
		}
		w.leaf[i] = string(path[len(path)-1].ID)
		if est := rates["leafArea"]; est != nil {
			est.Observe(w.leaf[i])
		}
		if est := rates["stopId"]; est != nil {
			est.Observe(tr.BusStop)
		}
		if i/cfg.Buses%historyStride != 0 {
			continue
		}
		if err := w.manager.AppendHistory(historyRecord(tr, &e, path)); err != nil {
			return nil, err
		}
	}
	if _, err = w.manager.RunOnce(); err != nil {
		return nil, err
	}

	w.routing = core.NewRoutingTable(core.RouteByLocation, w.engines)
	w.engineLocs = map[string][]map[string]bool{}
	allTasks := make([]int, w.engines)
	for i := range allTasks {
		allTasks[i] = i
	}
	parts := map[string]*core.Partition{}
	for _, r := range w.rules {
		field := r.LocationField()
		part := parts[field]
		if part == nil {
			if part, err = core.PartitionRegions(rates[field].Snapshot(), w.engines); err != nil {
				return nil, err
			}
			parts[field] = part
			if err := w.routing.AddPartition(field, part, allTasks); err != nil {
				return nil, err
			}
		}
		perEngine := make([]map[string]bool, w.engines)
		for e := range perEngine {
			perEngine[e] = map[string]bool{}
			for _, reg := range part.Engines[e] {
				perEngine[e][reg.Location] = true
			}
		}
		w.engineLocs[r.Name] = perEngine
	}
	return w, nil
}

func historyRecord(tr *busdata.Trace, e *busdata.Enriched, path []*quadtree.Node) core.HistoryRecord {
	areas := make([]string, len(path))
	for i, nd := range path {
		areas[i] = string(nd.ID)
	}
	return core.HistoryRecord{
		Hour: tr.Hour(), Day: busdata.DayTypeOf(tr.Timestamp),
		StopID: tr.BusStop, Areas: areas,
		Delay: tr.Delay, ActualDelay: e.ActualDelay, Speed: e.SpeedKmh,
		Congestion: tr.Congestion,
	}
}

// installRules puts engine task's share of every rule into eng, as trafficd's
// EngineSetup does, and hands each installation to attach.
func (w *world) installRules(task int, eng *cep.Engine, attach func(core.Rule, *core.InstalledRule)) ([]*core.InstalledRule, error) {
	var installs []*core.InstalledRule
	for _, r := range w.rules {
		locs := w.engineLocs[r.Name][task]
		if len(locs) == 0 {
			continue
		}
		inst, err := core.InstallRule(eng, r, core.InstallOptions{
			Strategy: core.StrategyStream, Store: w.store, Locations: locs,
		})
		if err != nil {
			return nil, err
		}
		attach(r, inst)
		installs = append(installs, inst)
	}
	return installs, nil
}

// locationOf is the location a rule on field must report for trace i.
func (w *world) locationOf(field string, i int) string {
	if field == "stopId" {
		return w.traces[i].BusStop
	}
	return w.leaf[i]
}

// ---- the pipeline under test ----

type traceKey struct {
	vehicle string
	ts      int64
}

// pipeline is one runnable Figure-8 topology over a world: one runtime, or
// two joined by loopback TCP.
type pipeline struct {
	w     *world
	rts   []*storm.Runtime
	lns   []net.Listener // loopback listeners of a two-worker pipeline
	log   *emitLog
	recs  []*recorder // one per engine task
	index map[traceKey]int32
	ready sync.WaitGroup // engines still installing rules
	win   *window        // nil for an open loop
	exp   *telemetry.Exporter
}

// newPipeline builds what trafficd builds from the world: components from
// core.RegisterComponents wired by storm.LoadXML, the spout swapped for the
// benchmark's. workers is 1 or 2.
func newPipeline(w *world, n int, rate float64, workers int) (*pipeline, error) {
	p := &pipeline{w: w, log: newEmitLog(n), index: make(map[traceKey]int32, n)}
	for i := 0; i < n; i++ {
		tr := &w.traces[i]
		p.index[traceKey{tr.VehicleID, tr.Timestamp.Unix()}] = int32(i)
	}
	p.recs = make([]*recorder, w.engines)
	for i := range p.recs {
		p.recs[i] = &recorder{}
	}
	p.ready.Add(w.engines)
	if rate == 0 {
		p.win = &window{}
	}

	deps := &core.Deps{Config: core.TrafficConfig{
		Tree: w.tree, DB: w.db, Manager: w.manager, Telemetry: w.tel, Routing: w.routing,
	}}
	deps.Config.EngineSetup = func(task int, eng *cep.Engine) ([]*core.InstalledRule, error) {
		defer p.ready.Done()
		return w.installRules(task, eng, func(r core.Rule, inst *core.InstalledRule) {
			inst.AddListener(p.listener(p.recs[task], r.LocationField()))
		})
	}
	reg := storm.NewRegistry()
	core.RegisterComponents(reg, deps)
	reg.RegisterSpout("benchreader", func(map[string]string) (storm.SpoutFactory, error) {
		return func() storm.Spout {
			return &benchSpout{traces: w.traces[:n], log: p.log, pace: newPacer(rate), ready: &p.ready, win: p.win}
		}, nil
	})

	opts := []storm.Option{
		storm.WithBatchSize(batchSize), storm.WithBatchTimeout(batchTimeout), storm.WithTelemetry(w.tel),
	}
	var err error
	if p.rts, p.lns, err = buildRuntimes(workers, reg, opts); err != nil {
		return nil, err
	}
	if p.win != nil {
		p.win.rts = p.rts
	}
	if w.tel != nil {
		// trafficd exports a snapshot every five seconds; keep that work in.
		p.exp = telemetry.NewExporter(w.tel, io.Discard, 5*time.Second)
	}
	return p, nil
}

// buildRuntimes loads bench/topology.xml through reg into one runtime, or
// into one runtime per worker over pre-bound loopback listeners, each from its
// own load of the XML, as one trafficd process per worker would.
func buildRuntimes(workers int, reg *storm.Registry, opts []storm.Option) ([]*storm.Runtime, []net.Listener, error) {
	if workers == 1 {
		topo, _, err := storm.LoadXML(topologyXML, reg)
		if err != nil {
			return nil, nil, err
		}
		rt, err := storm.New(topo, opts...)
		if err != nil {
			return nil, nil, err
		}
		return []*storm.Runtime{rt}, nil, nil
	}
	lns := make([]net.Listener, workers)
	peers := make([]string, workers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(lns[:i])
			return nil, nil, err
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	rts := make([]*storm.Runtime, workers)
	for i := range rts {
		topo, _, err := storm.LoadXML(topologyXML, reg)
		if err == nil {
			wopts := append(append([]storm.Option(nil), opts...), storm.WithWorker(i, peers), storm.WithListener(lns[i]))
			rts[i], err = storm.New(topo, wopts...)
		}
		if err != nil {
			closeAll(lns)
			return nil, nil, err
		}
	}
	return rts, lns, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close() // nothing is connected yet; a second close by the runtime is harmless
	}
}

// close releases what a pipeline that is never run would leave open.
func (p *pipeline) close() { closeAll(p.lns) }

// run executes the pipeline to completion on every worker.
func (p *pipeline) run() error {
	if p.exp != nil {
		p.exp.Start()
		defer p.exp.Stop()
	}
	return runAll(p.rts)
}

func runAll(rts []*storm.Runtime) error {
	errs := make([]error, len(rts))
	var wg sync.WaitGroup
	for i, rt := range rts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rt.Run()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
	}
	return nil
}

// window is the closed loop: at most windowTraces tuples between the spout and
// the engines. Backpressure cannot be the loop over two workers: with the real
// bolts the TCP data plane deadlocks about every other run once its buffers
// fill in both directions (README, findings). Fewer than windowTraces enriched
// tuples are less than one peer queue holds, so no send to a peer ever blocks.
// The one-worker runs use the same loop so that the workloads differ by the
// wire and the telemetry only.
type window struct{ rts []*storm.Runtime }

const (
	windowTraces = 512
	windowCheck  = 32 // traces emitted between two looks at the monitor
)

// admit blocks while the tuples in flight, of sent traces emitted, exceed the
// window.
func (w *window) admit(sent int) {
	for {
		tot := monitorTotals(w.rts)
		split, eng := tot[core.CompSplitter], tot[core.CompEsper]
		inFlight := sent - int(split.executed) + int(split.emitted) - int(eng.executed+eng.failed)
		if inFlight <= windowTraces {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// opTotals is one operator's counters summed over the workers.
type opTotals struct {
	executed, emitted, failed uint64
	execNanos                 float64 // executed × mean execute time
}

func (p *pipeline) totals() map[string]opTotals { return monitorTotals(p.rts) }

func monitorTotals(rts []*storm.Runtime) map[string]opTotals {
	out := map[string]opTotals{}
	for _, rt := range rts {
		for _, t := range rt.Monitor().TotalsByComponent() {
			o := out[t.Component]
			o.executed += t.Executed
			o.emitted += t.Emitted
			o.failed += t.Errors + t.Dropped
			o.execNanos += float64(t.Executed) * float64(t.AvgLatency)
			out[t.Component] = o
		}
	}
	return out
}

func (p *pipeline) storedDetections() int { return p.w.db.Count(core.EventsTable) }

// listener times each detection of one engine against the trace that
// triggered it: the bd event of the join row carries that trace's vehicle and
// timestamp.
func (p *pipeline) listener(rec *recorder, field string) cep.Listener {
	return func(_ *cep.Statement, outs []cep.Output) {
		at := nanos()
		for _, o := range outs {
			i, ok := int32(-1), false
			if bd := o.Row["bd"]; bd != nil {
				vehicle, _ := bd.Fields["vehicleId"].(string)
				ts, _ := bd.Fields["ts"].(float64)
				i, ok = p.index[traceKey{vehicle, int64(ts)}]
			}
			if loc, _ := o.Fields["location"].(string); !ok || loc != p.w.locationOf(field, int(i)) {
				rec.unresolved++
				continue
			}
			rec.samples = append(rec.samples, sample{trace: i, at: at})
		}
	}
}

// benchSpout emits what the production busreader emits — the pooled
// Trace.FillValues payload on the default stream — and adds the two things
// the benchmark needs from its load source: a stamp of when each trace was
// due and sent, and an optional open-loop schedule. It holds its first trace
// back until every engine has its rules, so that set-up ends where the
// stream starts.
type benchSpout struct {
	traces []busdata.Trace
	log    *emitLog
	pace   *pacer
	ready  *sync.WaitGroup
	win    *window
	i      int
}

func (s *benchSpout) Open(storm.TaskContext) error { return nil }
func (s *benchSpout) Close() error                 { return nil }

func (s *benchSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.i >= len(s.traces) {
		return false, nil
	}
	if s.i == 0 {
		s.ready.Wait()
		s.pace.start()
	}
	if s.win != nil && s.i%windowCheck == 0 {
		s.win.admit(s.i)
	}
	due, sent := s.pace.wait(s.i)
	s.log.record(s.i, due, sent)
	col.Emit(s.traces[s.i].FillValues(busdata.GetValues()))
	s.i++
	return s.i < len(s.traces), nil
}

// ---- the layers, called one by one ----

// layerPass walks the feed on one goroutine and calls each layer's public
// function itself, a chunk of traces at a time. What sits between two layers
// in the product (cloning maps, building records) is done here between the
// calls, outside the layer timings.
type layerPass struct {
	w       *world
	pre     *busdata.Preprocessor
	history *core.DynamicManager
	engines []*cep.Engine
	db      *sqlstore.DB

	vals   []map[string]any
	enr    []busdata.Enriched
	paths  [][]*quadtree.Node
	recs   []core.HistoryRecord
	routes [][]int
	sends  []delivery
	fired  []firing

	deliveries, detections int
}

type delivery struct {
	engine int
	ts     time.Time
	fields map[string]cep.Value
}

type firing struct {
	rule   string
	engine int
	fields map[string]cep.Value
}

func newLayerPass(w *world) (*layerPass, error) {
	lp := &layerPass{
		w: w, pre: busdata.NewPreprocessor(),
		history: &core.DynamicManager{FS: dfs.New(dfs.Options{})},
		db:      sqlstore.NewDB(),
	}
	if err := core.EnsureEventsTable(lp.db); err != nil {
		return nil, err
	}
	for task := 0; task < w.engines; task++ {
		eng := cep.New()
		_, err := w.installRules(task, eng, func(r core.Rule, inst *core.InstalledRule) {
			inst.AddListener(func(st *cep.Statement, outs []cep.Output) {
				for _, o := range outs {
					lp.fired = append(lp.fired, firing{st.Name, task, o.Fields})
				}
			})
		})
		if err != nil {
			return nil, err
		}
		lp.engines = append(lp.engines, eng)
	}
	return lp, nil
}

// layers lists the pass's steps in pipeline order. A step with a name is a
// layer and is timed; one without is the benchmark's stand-in for the
// product's glue between two layers.
func (lp *layerPass) layers() []layerStep {
	traces := lp.w.traces
	return []layerStep{
		{name: "busdata.fill", run: func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				busdata.PutValues(traces[i].FillValues(busdata.GetValues()))
			}
			return hi - lo, nil
		}},
		{run: func(lo, hi int) (int, error) {
			lp.grow(hi - lo)
			for i := lo; i < hi; i++ {
				clear(lp.vals[i-lo])
				traces[i].FillValues(lp.vals[i-lo])
			}
			return 0, nil
		}},
		{name: "busdata.preprocess", run: func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				lp.enr[i-lo] = lp.pre.Process(traces[i])
			}
			return hi - lo, nil
		}},
		{name: "quadtree.path", run: func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				lp.paths[i-lo] = lp.w.tree.Path(traces[i].Pos)
			}
			return hi - lo, nil
		}},
		{run: func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				v, e, path := lp.vals[i-lo], &lp.enr[i-lo], lp.paths[i-lo]
				v["speed"], v["actualDelay"], v["heading"] = e.SpeedKmh, e.ActualDelay, e.Heading
				rec := historyRecord(&traces[i], e, path)
				for l, area := range rec.Areas {
					v[fmt.Sprintf("layer%dArea", l)] = area
				}
				v["leafArea"], v["areaPath"], v["stopId"] = rec.Areas[len(rec.Areas)-1], rec.Areas, rec.StopID
				lp.recs[i-lo] = rec
			}
			return 0, nil
		}},
		{name: "core.history", run: func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				if err := lp.history.AppendHistory(lp.recs[i-lo]); err != nil {
					return 0, err
				}
			}
			return hi - lo, nil
		}},
		{name: "core.route", run: func(lo, hi int) (int, error) {
			for i := lo; i < hi; i++ {
				lp.routes[i-lo] = lp.w.routing.EnginesFor(lp.vals[i-lo])
			}
			return hi - lo, nil
		}},
		{run: func(lo, hi int) (int, error) {
			lp.sends = lp.sends[:0]
			for i := lo; i < hi; i++ {
				for _, engine := range lp.routes[i-lo] {
					fields := make(map[string]cep.Value, len(lp.vals[i-lo]))
					for k, v := range lp.vals[i-lo] {
						fields[k] = v
					}
					lp.sends = append(lp.sends, delivery{engine, traces[i].Timestamp, fields})
				}
			}
			return 0, nil
		}},
		{name: "cep.send", run: func(lo, hi int) (int, error) {
			lp.fired = lp.fired[:0]
			for _, d := range lp.sends {
				if err := lp.engines[d.engine].SendEventAt(core.BusStream, d.ts, d.fields); err != nil {
					return 0, err
				}
			}
			lp.deliveries += len(lp.sends)
			return len(lp.sends), nil
		}},
		{name: "sqlstore.insert", run: func(lo, hi int) (int, error) {
			for _, f := range lp.fired {
				err := lp.db.Insert(core.EventsTable, sqlstore.Row{
					"rule": f.rule, "location": f.fields["location"], "observed": f.fields["observed"],
					"threshold": f.fields["threshold"], "engine": float64(f.engine),
				})
				if err != nil {
					return 0, err
				}
			}
			lp.detections += len(lp.fired)
			return len(lp.fired), nil
		}},
	}
}

func (lp *layerPass) grow(n int) {
	for len(lp.vals) < n {
		lp.vals = append(lp.vals, make(map[string]any, 24))
	}
	if len(lp.enr) < n {
		lp.enr = make([]busdata.Enriched, n)
		lp.paths = make([][]*quadtree.Node, n)
		lp.recs = make([]core.HistoryRecord, n)
		lp.routes = make([][]int, n)
	}
}

// ---- the no-op shape: the same XML with pass-through bolts ----

// shapeRun pushes n payloads through bench/topology.xml with every bolt
// replaced by a pass-through, so that what is left is the runtime: groupings,
// batching, queues and, with two workers, the wire. payloads are enriched
// tuples from the layer pass; each carries the engines the real routing table
// gave it, and the stand-in engines emit detectRatio detections per delivery.
// All shape runs are windowed like the two-worker pipeline, so that their
// differences are the wire and the telemetry and not the loop.
func shapeRun(payloads []shapePayload, n int, detectRatio float64, workers int, tel bool) (cpu int64, err error) {
	win := &window{}
	reg := storm.NewRegistry()
	reg.RegisterSpout("benchreader", func(map[string]string) (storm.SpoutFactory, error) {
		return func() storm.Spout { return &shapeSpout{payloads: payloads, n: n, win: win} }, nil
	})
	pass := func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt { return passBolt{} }, nil
	}
	for _, typ := range []string{"preprocess", "areatracker", "busstops"} {
		reg.RegisterBolt(typ, pass)
	}
	reg.RegisterBolt("splitter", func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt { return shapeSplitter{payloads} }, nil
	})
	reg.RegisterBolt("esper", func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt { return &shapeEngine{ratio: detectRatio} }, nil
	})
	reg.RegisterBolt("eventsstorer", func(map[string]string) (storm.BoltFactory, error) {
		return func() storm.Bolt { return sinkBolt{} }, nil
	})
	opts := []storm.Option{storm.WithBatchSize(batchSize), storm.WithBatchTimeout(batchTimeout)}
	if tel {
		opts = append(opts, storm.WithTelemetry(telemetry.NewRegistry()))
	}
	rts, _, err := buildRuntimes(workers, reg, opts) // the runtimes close their listeners when they have run
	if err != nil {
		return 0, err
	}
	win.rts = rts
	cpu0 := cpuNanos()
	if err := runAll(rts); err != nil {
		return 0, err
	}
	return cpuNanos() - cpu0, nil
}

type shapePayload struct {
	values  map[string]any
	engines []int
}

// shapePayloads enriches the first k traces the way the pipeline would and
// tags each with its index, which is how the stand-in splitter finds the
// route again.
func (lp *layerPass) shapePayloads(k int) ([]shapePayload, error) {
	out := make([]shapePayload, k)
	steps := lp.layers()
	for _, st := range steps {
		if _, err := st.run(0, k); err != nil {
			return nil, err
		}
		if st.name == "core.route" {
			break
		}
	}
	for i := range out {
		v := make(map[string]any, len(lp.vals[i])+1)
		for key, val := range lp.vals[i] {
			v[key] = val
		}
		v[shapeIndexField] = float64(i)
		out[i] = shapePayload{values: v, engines: lp.routes[i]}
	}
	return out, nil
}

const shapeIndexField = "benchIndex"

type shapeSpout struct {
	payloads []shapePayload
	win      *window
	n, i     int
}

func (s *shapeSpout) Open(storm.TaskContext) error { return nil }
func (s *shapeSpout) Close() error                 { return nil }
func (s *shapeSpout) NextTuple(col storm.Collector) (bool, error) {
	if s.i >= s.n {
		return false, nil
	}
	if s.i%windowCheck == 0 {
		s.win.admit(s.i)
	}
	col.Emit(s.payloads[s.i%len(s.payloads)].values)
	s.i++
	return s.i < s.n, nil
}

type passBolt struct{}

func (passBolt) Prepare(storm.TaskContext) error { return nil }
func (passBolt) Cleanup() error                  { return nil }
func (passBolt) Execute(t storm.Tuple, col storm.Collector) error {
	col.Emit(t.Values)
	return nil
}

type shapeSplitter struct{ payloads []shapePayload }

func (shapeSplitter) Prepare(storm.TaskContext) error { return nil }
func (shapeSplitter) Cleanup() error                  { return nil }
func (b shapeSplitter) Execute(t storm.Tuple, col storm.Collector) error {
	i, _ := t.Values[shapeIndexField].(float64)
	for _, engine := range b.payloads[int(i)].engines {
		col.EmitDirect("routed", engine, t.Values)
	}
	return nil
}

var shapeDetection = map[string]any{
	"rule": "stopDelay", "location": "L01-S01", "observed": 1.5, "threshold": 1.0, "engine": 0.0,
}

type shapeEngine struct{ ratio, acc float64 }

func (*shapeEngine) Prepare(storm.TaskContext) error { return nil }
func (*shapeEngine) Cleanup() error                  { return nil }
func (b *shapeEngine) Execute(_ storm.Tuple, col storm.Collector) error {
	if b.acc += b.ratio; b.acc >= 1 {
		b.acc--
		col.Emit(shapeDetection)
	}
	return nil
}

type sinkBolt struct{}

func (sinkBolt) Prepare(storm.TaskContext) error            { return nil }
func (sinkBolt) Cleanup() error                             { return nil }
func (sinkBolt) Execute(storm.Tuple, storm.Collector) error { return nil }
