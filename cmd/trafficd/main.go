// Command trafficd runs the full traffic-management pipeline of the paper:
// it loads an XML topology description plus rule declarations (§3.2), reads
// a trace CSV (see cmd/trafficgen), bootstraps the dynamic thresholds from
// per-key partials of the enriched history, partitions the rules'
// locations over the configured Esper engines (Algorithm 1), and replays the
// feed at full speed through the Storm-like runtime, reporting per-bolt
// throughput and latency like the paper's monitor thread.
//
// Usage:
//
//	trafficgen -out traces.csv -minutes 30 -buses 200 -lines 20
//	trafficd -traces traces.csv -topology topology.xml
//
// Multi-worker mode splits the same topology across OS processes connected
// over TCP: start one trafficd per worker with the same flags, trace file
// and peer list, varying only -worker.id. Every worker builds the identical
// topology; the deterministic scheduler assigns each executor to exactly
// one worker and the transport carries cross-worker edges:
//
//	trafficd -traces traces.csv -worker.id 0 -worker.peers 127.0.0.1:7101,127.0.0.1:7102 &
//	trafficd -traces traces.csv -worker.id 1 -worker.peers 127.0.0.1:7101,127.0.0.1:7102
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/core"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// options carries the parsed command line.
type options struct {
	tracesPath  string
	topoPath    string
	monitorSec  int
	sensitivity float64

	telemetryAddr     string
	telemetryInterval time.Duration
	noTelemetry       bool

	ackTimeout    time.Duration
	ackRetries    int
	ackMode       storm.AckMode
	epochInterval time.Duration
	failurePolicy string
	runDeadline   time.Duration

	rebalanceInterval time.Duration
	rebalanceSkew     float64

	batchSize    int
	batchTimeout time.Duration

	workerID        int
	workerPeers     string
	workerHeartbeat time.Duration
}

// parseFlags parses the command line into options, validating flag
// combinations that would otherwise be silent no-ops (the reliability
// knobs all depend on -ack.timeout actually enabling acking, the skew
// trigger on -rebalance.interval, the worker knobs on a peer list).
func parseFlags(args []string) (options, error) {
	var opt options
	var ackMode string
	fs := flag.NewFlagSet("trafficd", flag.ContinueOnError)
	fs.StringVar(&opt.tracesPath, "traces", "", "trace CSV (required; produce one with trafficgen)")
	fs.StringVar(&opt.topoPath, "topology", "", "topology XML (defaults to the Figure 8 topology, internal/core/topology.xml)")
	fs.IntVar(&opt.monitorSec, "monitor", 40, "monitor window in seconds (0 = only final totals)")
	fs.Float64Var(&opt.sensitivity, "s", 1, "threshold sensitivity s (threshold = mean + s*stdv)")
	fs.StringVar(&opt.telemetryAddr, "telemetry.addr", "", "serve live telemetry snapshots + pprof on this address (e.g. :8077)")
	fs.DurationVar(&opt.telemetryInterval, "telemetry.interval", 5*time.Second, "period between telemetry JSON-lines snapshots on stdout")
	fs.BoolVar(&opt.noTelemetry, "telemetry.off", false, "disable the telemetry registry and tuple tracing entirely")
	fs.DurationVar(&opt.ackTimeout, "ack.timeout", 0, "enable at-least-once delivery: replay anchored tuples not acked within this timeout (0 = off)")
	fs.IntVar(&opt.ackRetries, "ack.retries", 3, "replays per anchored tuple before it expires as dropped")
	fs.StringVar(&ackMode, "ack.mode", "xor", "reliability engine, xor|epoch: xor (per-tuple checksum acker, at-least-once) or epoch (barrier checkpoints with spout replay)")
	fs.DurationVar(&opt.epochInterval, "epoch.interval", 0, "barrier injection period under -ack.mode epoch (0 = the storm default, 100ms)")
	fs.StringVar(&opt.failurePolicy, "failure.policy", "failfast", "task failure policy: failfast (first error fails the run) or degrade (quarantine failing tasks, keep running)")
	fs.DurationVar(&opt.runDeadline, "run.deadline", 0, "cancel the run gracefully after this duration (0 = no deadline)")
	fs.DurationVar(&opt.rebalanceInterval, "rebalance.interval", 0, "re-run the rules partitioning over live rate estimates this often and swap the routing table when skewed (0 = static routing)")
	fs.Float64Var(&opt.rebalanceSkew, "rebalance.skew", 2, "skew trigger for live rebalancing: swap when max/mean per-engine rate reaches this")
	fs.IntVar(&opt.batchSize, "batch.size", 64, "envelopes per transport batch between executors (1 = unbatched, the pre-batching data plane)")
	fs.DurationVar(&opt.batchTimeout, "batch.timeout", time.Millisecond, "flush partially filled batches after the oldest envelope has waited this long")
	fs.IntVar(&opt.workerID, "worker.id", 0, "this process's index into -worker.peers (multi-worker mode)")
	fs.StringVar(&opt.workerPeers, "worker.peers", "", "comma-separated host:port list, one per worker process; empty = single-process mode")
	fs.DurationVar(&opt.workerHeartbeat, "worker.heartbeat", time.Second, "peer heartbeat period; a peer silent for 4 periods is declared lost")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	var err error
	if opt.ackMode, err = storm.ParseAckMode(ackMode); err != nil {
		return opt, fmt.Errorf("-ack.mode: %w", err)
	}
	if opt.epochInterval < 0 {
		return opt, fmt.Errorf("-epoch.interval must be >= 0, got %v", opt.epochInterval)
	}
	if opt.epochInterval > 0 && opt.ackMode != storm.AckEpoch {
		return opt, fmt.Errorf("-epoch.interval has no effect without -ack.mode epoch (mode is %v)", opt.ackMode)
	}
	// The reliability knobs do nothing unless -ack.timeout enables acking:
	// setting one without it used to be accepted silently, hiding typos and
	// configurations that never took effect.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if opt.ackTimeout <= 0 {
		for _, name := range []string{"ack.retries", "ack.mode", "epoch.interval"} {
			if set[name] {
				return opt, fmt.Errorf("-%s has no effect without -ack.timeout > 0 (acking is off)", name)
			}
		}
	}
	if set["rebalance.skew"] && opt.rebalanceInterval <= 0 {
		return opt, fmt.Errorf("-rebalance.skew has no effect without -rebalance.interval > 0 (rebalancing is off)")
	}
	if opt.rebalanceSkew <= 1 {
		return opt, fmt.Errorf("-rebalance.skew must be > 1, got %v (max/mean per-engine rate is never below 1)", opt.rebalanceSkew)
	}
	if len(strings.Split(opt.workerPeers, ",")) < 2 {
		for _, name := range []string{"worker.id", "worker.heartbeat"} {
			if set[name] {
				return opt, fmt.Errorf("-%s has no effect without a -worker.peers list of two or more (single-process mode)", name)
			}
		}
	}
	if opt.ackTimeout > 0 && opt.ackTimeout < time.Millisecond {
		return opt, fmt.Errorf("-ack.timeout %v is below the 1ms sweep granularity (see storm.WithAckTimeout)", opt.ackTimeout)
	}
	if opt.tracesPath == "" {
		return opt, fmt.Errorf("-traces is required")
	}
	return opt, nil
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "trafficd:", err)
		}
		os.Exit(2)
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "trafficd:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	tracesPath, topoPath := opt.tracesPath, opt.topoPath
	monitorSec, s := opt.monitorSec, opt.sensitivity
	f, err := os.Open(tracesPath)
	if err != nil {
		return err
	}
	traces, err := busdata.ReadCSV(f)
	closeErr := f.Close()
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	if len(traces) == 0 {
		return fmt.Errorf("no traces in %s", tracesPath)
	}
	fmt.Printf("loaded %d traces\n", len(traces))

	xmlBytes := core.TopologyXML
	if topoPath != "" {
		xmlBytes, err = os.ReadFile(topoPath)
		if err != nil {
			return err
		}
	}

	// Off-line computation (§4.1): quadtree over the observed positions.
	tree, err := buildTree(traces)
	if err != nil {
		return err
	}
	fmt.Printf("quadtree: %d nodes, depth %d, %d leaves\n",
		tree.NodeCount(), tree.Depth(), len(tree.Leaves()))

	// Telemetry: one registry shared by every layer — storm tuple tracing,
	// per-engine CEP latency, sqlstore query latency, batch run timings.
	var tel *telemetry.Registry
	if !opt.noTelemetry {
		tel = telemetry.NewRegistry()
	}

	// Storage + batch layer.
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		return err
	}
	manager := &core.DynamicManager{Store: store, Telemetry: tel}
	if tel != nil {
		db.SetTelemetry(tel)
		tel.Register(manager)
	}

	// Bootstrap thresholds: enrich the feed once (outside the topology)
	// into history partials, then publish their statistics.
	if err := bootstrapHistory(manager, tree, traces); err != nil {
		return err
	}
	nStats, err := manager.RunOnce()
	if err != nil {
		return err
	}
	fmt.Printf("batch layer: %d statistics rows computed\n", nStats)

	// Rules and routing.
	deps := &core.Deps{Config: core.TrafficConfig{
		Traces: traces, Tree: tree, DB: db, Manager: manager, Telemetry: tel,
	}}
	reg := storm.NewRegistry()
	core.RegisterComponents(reg, deps)

	// Parse to learn the Esper parallelism and the rules, wire routing and
	// engine setup from them, then build (the component constructors read
	// deps.Config at build time).
	parsed, err := storm.ParseXML(xmlBytes)
	if err != nil {
		return err
	}
	engines := 1
	for _, b := range parsed.Bolts {
		if b.Type == "esper" && b.Tasks > 0 {
			engines = b.Tasks
		}
	}

	defs, err := parsed.RuleDefs()
	if err != nil {
		return err
	}
	var rules []core.Rule
	for _, def := range defs {
		r, err := core.RuleFromDef(def)
		if err != nil {
			return err
		}
		if r.Sensitivity == 0 {
			r.Sensitivity = s
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return fmt.Errorf("topology XML declares no template rules")
	}
	fmt.Printf("rules: %d template instances on %d engines\n", len(rules), engines)

	routing, err := buildRouting(tree, traces, rules, engines)
	if err != nil {
		return err
	}
	deps.Config.Routing = routing

	// Live rebalancing (§4.2.1 dynamic loop): the splitter feeds observed
	// locations into the rebalancer's rate estimators; every interval, when
	// max/mean per-engine rate crosses the skew trigger, Algorithm 1 re-runs
	// on the live snapshot and the routing table is swapped atomically; the
	// splitter then hands ownership over on its edges. Each engine takes the
	// locations it gains over with nothing to load: every rule's thresholds
	// table holds every location.
	var peers []string
	if opt.workerPeers != "" {
		peers = strings.Split(opt.workerPeers, ",")
		if opt.workerID < 0 || opt.workerID >= len(peers) {
			return fmt.Errorf("-worker.id %d out of range for %d peers", opt.workerID, len(peers))
		}
	}

	var reb *core.Rebalancer
	if opt.rebalanceInterval > 0 {
		reb, err = core.NewRebalancer(core.RebalancerConfig{
			Routing:       routing,
			SkewThreshold: opt.rebalanceSkew,
			Telemetry:     tel,
		})
		if err != nil {
			return err
		}
		deps.Config.Rebalancer = reb
		fmt.Printf("rebalancing: every %v, skew trigger %.2f\n", opt.rebalanceInterval, opt.rebalanceSkew)
	}

	// Every engine installs every rule, restricted to its share of the
	// rule's locations, which may be none yet: a rebalance moves locations
	// between engines without installing anything.
	deps.Config.EngineSetup = func(task int, eng *cep.Engine) ([]*core.InstalledRule, error) {
		var installs []*core.InstalledRule
		for _, r := range rules {
			inst, err := core.InstallRule(eng, r, core.InstallOptions{
				Store: store, Locations: routing.Locations(r.LocationField(), task),
			})
			if err != nil {
				return nil, err
			}
			installs = append(installs, inst)
		}
		return installs, nil
	}

	topo, err := parsed.Build(reg)
	if err != nil {
		return err
	}

	var policy storm.FailurePolicy
	switch opt.failurePolicy {
	case "", "failfast":
		policy = storm.FailFast
	case "degrade":
		policy = storm.Degrade
	default:
		return fmt.Errorf("unknown -failure.policy %q (want failfast or degrade)", opt.failurePolicy)
	}
	stormOpts := []storm.Option{
		storm.WithMonitorInterval(time.Duration(monitorSec) * time.Second),
		storm.WithTelemetry(tel),
		storm.WithFailurePolicy(policy),
		storm.WithBatchSize(opt.batchSize),
		storm.WithBatchTimeout(opt.batchTimeout),
	}
	if len(peers) > 1 {
		stormOpts = append(stormOpts,
			storm.WithWorker(opt.workerID, peers),
			storm.WithHeartbeat(opt.workerHeartbeat),
		)
	}
	if opt.ackTimeout > 0 {
		stormOpts = append(stormOpts,
			storm.WithAckTimeout(opt.ackTimeout),
			storm.WithMaxRetries(opt.ackRetries),
			storm.WithAckMode(opt.ackMode),
		)
		if opt.epochInterval > 0 {
			stormOpts = append(stormOpts, storm.WithEpochInterval(opt.epochInterval))
		}
	}
	rt, err := storm.New(topo, stormOpts...)
	if err != nil {
		return err
	}
	if len(peers) > 1 {
		fmt.Printf("worker %d of %d, listening on %s\n", opt.workerID, len(peers), peers[opt.workerID])
	}
	if reb != nil {
		reb.Bind(rt, opt.rebalanceInterval)
		defer reb.Stop()
	}
	rt.Monitor().Subscribe(func(rep storm.Report) {
		cs := rep.Components[core.CompEsper]
		fmt.Printf("[monitor] window %.0fs: EsperBolt %d tuples (%.0f/s), avg latency %v\n",
			rep.Window.Seconds(), cs.Executed, cs.Throughput, cs.AvgLatency)
	})

	// Telemetry exporters: JSON lines on stdout every interval plus a
	// final line at shutdown, and the optional live HTTP endpoint.
	var exporter *telemetry.Exporter
	if tel != nil {
		exporter = telemetry.NewExporter(tel, os.Stdout, opt.telemetryInterval)
		exporter.Start()
		if opt.telemetryAddr != "" {
			go func() {
				if err := telemetry.Serve(opt.telemetryAddr, tel); err != nil {
					fmt.Fprintln(os.Stderr, "trafficd: telemetry endpoint:", err)
				}
			}()
			fmt.Printf("telemetry: serving snapshots + pprof on %s\n", opt.telemetryAddr)
		}
	}

	ctx := context.Background()
	if opt.runDeadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.runDeadline)
		defer cancel()
	}
	start := time.Now()
	runErr := rt.RunContext(ctx)
	elapsed := time.Since(start)
	if exporter != nil {
		exporter.Stop()
	}
	if runErr != nil && !errors.Is(runErr, context.DeadlineExceeded) {
		return runErr
	}
	if runErr != nil {
		fmt.Printf("\nrun deadline reached after %v; in-flight tuples drained\n", elapsed.Round(time.Millisecond))
	}

	fmt.Printf("\nprocessed %d traces in %v (%.0f tuples/s end-to-end)\n",
		len(traces), elapsed.Round(time.Millisecond), float64(len(traces))/elapsed.Seconds())
	for _, tot := range rt.Monitor().TotalsByComponent() {
		fmt.Printf("  %-16s executed=%-8d emitted=%-8d errors=%-4d dropped=%-4d avg latency=%v\n",
			tot.Component, tot.Executed, tot.Emitted, tot.Errors, tot.Dropped, tot.AvgLatency)
	}
	if ft := rt.FaultTotals(); ft != (storm.FaultTotals{}) {
		fmt.Printf("faults: panics=%d replays=%d acked=%d dropped=%d quarantined=%d missing_field=%d\n",
			ft.Panics, ft.Replays, ft.Acked, ft.Dropped, ft.Quarantined, ft.MissingField)
	}
	if reb != nil {
		reb.Stop()
		tot := reb.Totals()
		fmt.Printf("rebalancing: cycles=%d swaps=%d moves=%d\n", tot.Cycles, tot.Swaps, tot.Moves)
		if rep := reb.LastReport(); rep.Swapped {
			fmt.Printf("  last swap: %d moves, skew %.2f → %.2f, took %v\n",
				len(rep.Moves), rep.SkewBefore, rep.SkewAfter, rep.Duration)
		}
	}
	if tel != nil {
		snap := tel.Gather()
		if m, ok := snap.Get("storm." + core.CompStorer + ".e2e_latency_ns"); ok && m.Histogram != nil {
			h := m.Histogram
			fmt.Printf("end-to-end tuple latency (spout → storer): p50=%v p95=%v p99=%v over %d tuples\n",
				time.Duration(h.P50), time.Duration(h.P95), time.Duration(h.P99), h.Count)
		}
	}
	fmt.Printf("detected events stored: %d\n", db.Count(core.EventsTable))
	return nil
}

// buildTree seeds the quadtree with a sample of observed positions ("the
// quadtree was created by adding important coordinates of the Dublin city",
// §4.1.1).
func buildTree(traces []busdata.Trace) (*quadtree.Tree, error) {
	var seeds []geo.Point
	step := len(traces)/512 + 1
	for i := 0; i < len(traces); i += step {
		seeds = append(seeds, traces[i].Pos)
	}
	return quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8, MaxDepth: 8})
}

// bootstrapHistory enriches the raw feed into batch-layer history records.
func bootstrapHistory(m *core.DynamicManager, tree *quadtree.Tree, traces []busdata.Trace) error {
	pre := busdata.NewPreprocessor()
	for _, tr := range traces {
		e := pre.Process(tr)
		path := tree.Path(tr.Pos)
		areas := make([]string, len(path))
		for i, n := range path {
			areas[i] = string(n.ID)
		}
		rec := core.HistoryRecord{
			Hour: tr.Hour(), Day: busdata.DayTypeOf(tr.Timestamp),
			StopID: tr.BusStop, Areas: areas,
			Delay: tr.Delay, ActualDelay: e.ActualDelay, Speed: e.SpeedKmh,
			Congestion: tr.Congestion,
		}
		if err := m.AppendHistory(rec); err != nil {
			return err
		}
	}
	return nil
}

// buildRouting partitions every rule's locations over the engines
// (Algorithm 1, rates estimated from the feed itself) into the splitter
// routing table, which also says what each engine starts out owning.
func buildRouting(tree *quadtree.Tree, traces []busdata.Trace, rules []core.Rule, engines int) (*core.RoutingTable, error) {
	// Estimate location rates per granularity from the feed.
	est := map[string]*core.RateEstimator{}
	for _, r := range rules {
		if _, ok := est[r.LocationField()]; !ok {
			est[r.LocationField()] = core.NewRateEstimator(nil, 1)
		}
	}
	for _, tr := range traces {
		path := tree.Path(tr.Pos)
		for field, e := range est {
			switch {
			case field == "stopId":
				e.Observe(tr.BusStop)
			case field == "leafArea":
				if len(path) > 0 {
					e.Observe(string(path[len(path)-1].ID))
				}
			default: // layerNArea
				var layer int
				if _, err := fmt.Sscanf(field, "layer%dArea", &layer); err == nil && layer < len(path) {
					e.Observe(string(path[layer].ID))
				}
			}
		}
	}

	routing := core.NewRoutingTable(core.RouteByLocation, engines)
	allTasks := make([]int, engines)
	for i := range allTasks {
		allTasks[i] = i
	}
	// Deterministic iteration for logs.
	fields := make([]string, 0, len(est))
	for f := range est {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, field := range fields {
		rates := est[field].Snapshot()
		if len(rates) == 0 {
			return nil, fmt.Errorf("no observed locations for field %s", field)
		}
		part, err := core.PartitionRegions(rates, engines)
		if err != nil {
			return nil, err
		}
		if err := routing.AddPartition(field, part, allTasks); err != nil {
			return nil, err
		}
		fmt.Printf("partition %s: %d locations over %d engines (imbalance %.2f)\n",
			field, len(part.ByLocation), engines, part.Imbalance())
	}
	return routing, nil
}
