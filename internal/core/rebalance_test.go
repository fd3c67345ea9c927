package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// gridLocs returns n synthetic quadtree-like location names.
func gridLocs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("q%02d", i)
	}
	return out
}

// tableFromRates builds a RouteByLocation table by running Algorithm 1 over
// the given rates on `engines` tasks.
func tableFromRates(t *testing.T, field string, rates []RegionRate, engines int) *RoutingTable {
	t.Helper()
	part, err := PartitionRegions(rates, engines)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRoutingTable(RouteByLocation, engines)
	tasks := make([]int, engines)
	for i := range tasks {
		tasks[i] = i
	}
	if err := rt.AddPartition(field, part, tasks); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestRoutingEnginesForUnrouted is the table-driven contract for the
// unrouted path: missing fields and unknown locations return zero engines
// (the Splitter then accounts for them as drops), known locations route,
// and RouteAll always routes.
func TestRoutingEnginesForUnrouted(t *testing.T) {
	rates := []RegionRate{{Location: "a", Rate: 2}, {Location: "b", Rate: 1}}
	byLoc := tableFromRates(t, "leafArea", rates, 2)
	all := NewRoutingTable(RouteAll, 2)
	cases := []struct {
		name   string
		table  *RoutingTable
		values map[string]any
		routed bool
	}{
		{"known location", byLoc, map[string]any{"leafArea": "a"}, true},
		{"unknown location", byLoc, map[string]any{"leafArea": "zz"}, false},
		{"missing field", byLoc, map[string]any{"speed": 12.5}, false},
		{"wrong-typed field", byLoc, map[string]any{"leafArea": 7}, false},
		{"empty location", byLoc, map[string]any{"leafArea": ""}, false},
		{"route-all ignores fields", all, map[string]any{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.table.EnginesFor(tc.values)
			if tc.routed && len(got) == 0 {
				t.Fatalf("expected engines, got none")
			}
			if !tc.routed && len(got) != 0 {
				t.Fatalf("expected no engines, got %v", got)
			}
		})
	}
}

// TestRoutingSplitterUnroutedAccounting runs the Figure 8 topology with a
// routing table that only knows half the leaves: the splitter must count
// every unroutable tuple as a drop (and in core.splitter.unrouted) so the
// edge accounting executed = emitted + dropped closes.
func TestRoutingSplitterUnroutedAccounting(t *testing.T) {
	tree := buildTestTree(t)
	traces := genTraces(t, 20, 5)

	// Partition only the even-indexed leaves; tuples landing in the others
	// are unroutable by construction.
	known := make(map[string]bool)
	var rates []RegionRate
	for i, leaf := range tree.Leaves() {
		if i%2 == 0 {
			known[string(leaf.ID)] = true
			rates = append(rates, RegionRate{Location: string(leaf.ID), Rate: 1})
		}
	}
	expectedUnrouted := 0
	for _, tr := range traces {
		leaf := tree.Locate(tr.Pos)
		if leaf == nil || !known[string(leaf.ID)] {
			expectedUnrouted++
		}
	}
	if expectedUnrouted == 0 {
		t.Fatal("test needs some unroutable traces")
	}

	reg := telemetry.NewRegistry()
	topo, err := BuildTrafficTopology(TrafficConfig{
		Traces:    traces,
		Tree:      tree,
		Engines:   2,
		Routing:   tableFromRates(t, "leafArea", rates, 2),
		Telemetry: reg,
	})
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

	byComp := map[string]storm.ComponentTotal{}
	for _, tot := range rt.Monitor().TotalsByComponent() {
		byComp[tot.Component] = tot
	}
	split := byComp[CompSplitter]
	if split.Executed != uint64(len(traces)) {
		t.Fatalf("splitter executed %d, want %d", split.Executed, len(traces))
	}
	if split.Dropped != uint64(expectedUnrouted) {
		t.Fatalf("splitter dropped %d, want %d", split.Dropped, expectedUnrouted)
	}
	if split.Emitted+split.Dropped != split.Executed {
		t.Fatalf("splitter accounting open: emitted %d + dropped %d != executed %d",
			split.Emitted, split.Dropped, split.Executed)
	}
	if got := byComp[CompEsper].Executed; got != split.Emitted {
		t.Fatalf("esper executed %d, want %d (every routed tuple)", got, split.Emitted)
	}
	if got := reg.Counter("core.splitter.unrouted").Load(); got != uint64(expectedUnrouted) {
		t.Fatalf("core.splitter.unrouted = %d, want %d", got, expectedUnrouted)
	}
}

// TestRoutingTableSwapRace hammers EnginesFor on the rebalancer's live
// table while rebalance cycles swap it concurrently, the hotspot moving
// every cycle; run under -race it proves readers never see a half-built
// table (tier-1).
func TestRoutingTableSwapRace(t *testing.T) {
	locs := gridLocs(8)
	rates := make([]RegionRate, len(locs))
	for i, l := range locs {
		rates[i] = RegionRate{Location: l, Rate: 1}
	}
	reb, err := NewRebalancer(RebalancerConfig{Routing: tableFromRates(t, "leafArea", rates, 3)})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := map[string]any{"leafArea": locs[g]}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := reb.Table().EnginesFor(vals); len(got) != 1 {
					t.Errorf("location %s routed to %v, want exactly one engine", locs[g], got)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		hot := map[string]any{"leafArea": locs[i%len(locs)]}
		for k := 0; k < 50; k++ {
			reb.Observe(hot)
		}
		if _, err := reb.RebalanceOnce(); err != nil {
			t.Errorf("rebalance cycle: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if tot := reb.Totals(); tot.Swaps < 100 {
		t.Fatalf("swaps = %d, want ≥ 100: the readers raced too few swaps", tot.Swaps)
	}
}

// TestRebalancerObserveSwapRace drives Observe and table reads concurrently
// with forced rebalance cycles — the full live-path race surface.
func TestRebalancerObserveSwapRace(t *testing.T) {
	locs := gridLocs(12)
	rates := make([]RegionRate, len(locs))
	for i, l := range locs {
		rates[i] = RegionRate{Location: l, Rate: 1}
	}
	reb, err := NewRebalancer(RebalancerConfig{
		Routing:       tableFromRates(t, "leafArea", rates, 4),
		SkewThreshold: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				loc := locs[(g*3+i)%len(locs)]
				vals := map[string]any{"leafArea": loc}
				reb.Observe(vals)
				if got := reb.Table().EnginesFor(vals); len(got) != 1 {
					t.Errorf("location %s routed to %v", loc, got)
					return
				}
				i++
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if _, err := reb.RebalanceOnce(); err != nil {
			t.Errorf("rebalance cycle: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if tot := reb.Totals(); tot.Cycles < 200 {
		t.Fatalf("cycles = %d, want ≥ 200", tot.Cycles)
	}
}

// TestRebalancerRestoresBalanceAfterHotspotShift is the deterministic
// skew-shift kernel: routing is built for a morning hotspot; the hotspot
// then moves onto locations the old table packs onto one engine. The static
// table degrades past the trigger threshold; one rebalance cycle restores
// max/mean below it and keeps every location routed.
func TestRebalancerRestoresBalanceAfterHotspotShift(t *testing.T) {
	const (
		engines   = 4
		hotRate   = 80
		coldRate  = 5
		threshold = 1.5
	)
	locs := gridLocs(16)
	phaseA := make([]RegionRate, len(locs))
	for i, l := range locs {
		r := float64(coldRate)
		if i < engines { // q00..q03 are the morning hotspot
			r = hotRate
		}
		phaseA[i] = RegionRate{Location: l, Rate: r}
	}
	partA, err := PartitionRegions(phaseA, engines)
	if err != nil {
		t.Fatal(err)
	}
	table := NewRoutingTable(RouteByLocation, engines)
	if err := table.AddPartition("leafArea", partA, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	// The evening hotspot: the cold locations the old table packed onto
	// engine 0 all heat up at once.
	hot := make(map[string]bool)
	for _, r := range partA.Engines[0] {
		if r.Rate == coldRate {
			hot[r.Location] = true
		}
	}
	if len(hot) < 2 {
		t.Fatalf("engine 0 holds %d cold locations, need ≥ 2 for a hotspot", len(hot))
	}

	reb, err := NewRebalancer(RebalancerConfig{
		Routing:       table,
		SkewThreshold: threshold,
		Telemetry:     telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	feedPhaseB := func() {
		for _, l := range locs {
			n := coldRate
			if hot[l] {
				n = hotRate
			}
			for i := 0; i < n; i++ {
				reb.Observe(map[string]any{"leafArea": l})
			}
		}
	}

	feedPhaseB()
	rep, err := reb.MaybeRebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkewBefore < threshold {
		t.Fatalf("static skew = %.3f, expected ≥ %v (hotspot concentrated on one engine)", rep.SkewBefore, threshold)
	}
	if !rep.Swapped || len(rep.Moves) == 0 {
		t.Fatalf("expected a swap with moves, got %+v", rep)
	}
	if rep.SkewAfter >= threshold {
		t.Fatalf("rebalanced skew = %.3f, want < %v", rep.SkewAfter, threshold)
	}
	// No location may lose its route across the swap.
	for _, l := range locs {
		if got := reb.Table().EnginesFor(map[string]any{"leafArea": l}); len(got) != 1 {
			t.Fatalf("location %s routed to %v after swap", l, got)
		}
	}

	// Under the new table the same feed is balanced: the next window must
	// not trigger again.
	feedPhaseB()
	rep2, err := reb.MaybeRebalance()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Swapped {
		t.Fatalf("second cycle swapped again (skew %.3f): rebalance did not converge", rep2.SkewBefore)
	}
	if tot := reb.Totals(); tot.Swaps != 1 || tot.Cycles != 2 {
		t.Fatalf("totals = %+v, want 1 swap over 2 cycles", tot)
	}
}

// TestEsperBoltOwnershipLoadsThresholds drives one EsperBolt task the way
// the Splitter does. The engine starts owning nothing, so a row does not
// fire. Once the ownership tuple that gains the row's location is applied,
// the next row fires against the stored threshold: the rule's thresholds
// table holds every location, so the gain loads nothing. Re-gaining the
// location, and regaining it after losing it, keep it firing.
func TestEsperBoltOwnershipLoadsThresholds(t *testing.T) {
	const field = "layer2Area"
	store := newStore(t)
	rule := delayRule(1)
	bolt := &esperBolt{engines: 1, setup: func(_ int, eng *cep.Engine) ([]*InstalledRule, error) {
		inst, err := InstallRule(eng, rule, InstallOptions{Store: store, Locations: map[string]bool{}})
		if err != nil {
			return nil, err
		}
		return []*InstalledRule{inst}, nil
	}}
	if err := bolt.Prepare(storm.TaskContext{Component: CompEsper, NumTasks: 1}); err != nil {
		t.Fatal(err)
	}
	col := &emitRecorder{}
	execute := func(values map[string]any) {
		t.Helper()
		if err := bolt.Execute(storm.Tuple{Values: values}, col); err != nil {
			t.Fatal(err)
		}
	}
	row := func() {
		execute(map[string]any{
			"ts": float64(time.Date(2013, 1, 7, 8, 0, 0, 0, time.UTC).Unix()), field: "areaA",
			"hour": 8.0, "day": busdata.Weekday.String(), "delay": 1e9,
		})
	}
	gain := func() { execute(map[string]any{ownField: field, ownGained: []string{"areaA"}}) }

	row()
	if len(col.emitted) != 0 {
		t.Fatalf("an engine owning nothing fired: %v", col.emitted)
	}
	gain()
	row()
	if len(col.emitted) != 1 {
		t.Fatalf("%d detections after gaining areaA, want 1: its thresholds were not loaded", len(col.emitted))
	}
	want, found, err := store.Lookup(busdata.AttrDelay, "areaA", 8, busdata.Weekday, rule.Sensitivity)
	if err != nil || !found {
		t.Fatalf("stored threshold: %v, found=%v", err, found)
	}
	if got := col.emitted[0]["threshold"]; got != want {
		t.Fatalf("detection threshold = %v, want the stored %v", got, want)
	}
	gain()
	row()
	if len(col.emitted) != 2 {
		t.Fatalf("%d detections after re-gaining areaA, want 2", len(col.emitted))
	}

	// Lose areaA, then gain it back.
	execute(map[string]any{ownField: field, ownLost: []string{"areaA"}})
	row()
	if len(col.emitted) != 2 {
		t.Fatalf("%d detections after losing areaA, want still 2", len(col.emitted))
	}
	gain()
	row()
	if len(col.emitted) != 3 {
		t.Fatalf("%d detections after regaining areaA, want 3", len(col.emitted))
	}
}

// emitRecorder is a storm.Collector that keeps what a bolt emits.
type emitRecorder struct{ emitted []map[string]any }

func (c *emitRecorder) Emit(values map[string]any)                        { c.emitted = append(c.emitted, values) }
func (c *emitRecorder) EmitTo(_ string, values map[string]any)            { c.Emit(values) }
func (c *emitRecorder) EmitDirect(_ string, _ int, values map[string]any) { c.Emit(values) }

// TestRebalanceMigrationNoDetectionLoss is the migration differential: the
// same feed is run through (a) a balanced static routing and (b) a
// deliberately skewed routing that the rebalancer fixes mid-feed, moving
// locations between engines. With window-1 rules every tuple yields
// exactly one detection per rule, so both runs must produce the same
// multiset of detections (ignoring which engine fired them) — nothing may
// be lost across the swap. It holds through both entries to the one
// assembly: the builder the suites and examples call, and the registry +
// shipped XML document trafficd and bench/ load. The rebalancer is bound to
// the runtime as trafficd binds it; the test holds the feed at the BusReader
// after its first quarter and runs the skew check itself, and the swap must
// land before the Splitter's last tuple.
//
// Three rule sets: one rule with everything starting on engine 0; the
// shipped document's pair on one location field and window length
// (stopDelay + stopActual), where engine 1 starts out serving two stops that
// have thresholds for delay only — every engine still installs both rules
// at start, so the two share their lastevent and groupwin(stopId) views on
// every engine, and the stopActual thresholds of the stops engine 1 gains
// are in its table from the start;
// and one rule on each field (stopDelay + leafDelay) with the skew on leaves
// only. A trace then reaches the engine of its stop and the engine of its
// leaf, so a moved leaf still arrives at its old engine through the stop
// field, and that engine must not fire on it from the first row routed
// under the new table on: the ownership change rides the Splitter's edges,
// so the cut is exact with the feed flowing through the cycle.
func TestRebalanceMigrationNoDetectionLoss(t *testing.T) {
	entries := []struct {
		name  string
		build func(cfg *TrafficConfig, reg *storm.Registry) (*storm.Topology, error)
	}{
		{"BuildTrafficTopology", buildTrafficTopology},
		{"RegisterComponents+LoadXML", func(_ *TrafficConfig, reg *storm.Registry) (*storm.Topology, error) {
			topo, _, err := storm.LoadXML(TopologyXML, reg)
			return topo, err
		}},
	}
	for _, entry := range entries {
		for _, set := range []string{"leafDelay", "stopDelay+stopActual", "stopDelay+leafDelay"} {
			t.Run(entry.name+"/"+set, func(t *testing.T) { testMigrationNoDetectionLoss(t, entry.build, set) })
		}
	}
}

func testMigrationNoDetectionLoss(t *testing.T, build func(*TrafficConfig, *storm.Registry) (*storm.Topology, error), set string) {
	tree := buildTestTree(t)
	traces := genTraces(t, 40, 10)
	// The shipped document's EsperBolt tasks: the XML entry cannot run any
	// other count (an engine task's Prepare names both numbers if it drifts).
	const engines = 4
	tasks := []int{0, 1, 2, 3}

	leafDelay := Rule{Name: "leafDelay", Attribute: busdata.AttrDelay, Kind: QuadtreeLeaves, Window: 1, Sensitivity: 1}
	stopDelay := Rule{Name: "stopDelay", Attribute: busdata.AttrDelay, Kind: BusStops, Window: 1, Sensitivity: 1}
	stopActual := Rule{Name: "stopActual", Attribute: busdata.AttrActualDelay, Kind: BusStops, Window: 1, Sensitivity: 1}
	// locations lists each field's locations. Without a stops index the
	// BusStopsTracker passes the reported stop through, so the feed's stops,
	// in the order it visits them, are the stop locations.
	locations := map[string][]string{}
	for _, leaf := range tree.Leaves() {
		locations[leafDelay.LocationField()] = append(locations[leafDelay.LocationField()], string(leaf.ID))
	}
	seen := map[string]bool{}
	for _, tr := range traces {
		if !seen[tr.BusStop] {
			seen[tr.BusStop] = true
			locations[stopDelay.LocationField()] = append(locations[stopDelay.LocationField()], tr.BusStop)
		}
	}
	// skewed is the field whose locations the skewed run starts on engine
	// 0, except resident, which engine 1 serves from the start; bare[attribute]
	// the locations that have no thresholds.
	var rules []Rule
	var skewed string
	resident := map[string]bool{}
	bare := map[string]map[string]bool{}
	switch set {
	case "leafDelay":
		rules, skewed = []Rule{leafDelay}, leafDelay.LocationField()
	case "stopDelay+stopActual":
		rules, skewed = []Rule{stopDelay, stopActual}, stopDelay.LocationField()
		// The first two stops the feed visits are busy before the first
		// rebalance check.
		stops := locations[skewed]
		resident[stops[0]], resident[stops[1]] = true, true
		bare[busdata.AttrActualDelay] = resident
	case "stopDelay+leafDelay":
		rules, skewed = []Rule{stopDelay, leafDelay}, leafDelay.LocationField()
	}
	var fields []string
	for _, r := range rules {
		if f := r.LocationField(); !slices.Contains(fields, f) {
			fields = append(fields, f)
		}
	}
	uniform := map[string][]RegionRate{}
	for _, f := range fields {
		for _, loc := range locations[f] {
			uniform[f] = append(uniform[f], RegionRate{Location: loc, Rate: 1})
		}
	}

	seedThresholds := func(t *testing.T) (*sqlstore.DB, *sqlstore.ThresholdStore) {
		t.Helper()
		db := sqlstore.NewDB()
		store, err := sqlstore.NewThresholdStore(db)
		if err != nil {
			t.Fatal(err)
		}
		var stats []sqlstore.StatRow
		for _, r := range rules {
			for _, loc := range locations[r.LocationField()] {
				if bare[r.Attribute][loc] {
					continue
				}
				for h := 0; h < 24; h++ {
					for _, day := range []busdata.DayType{busdata.Weekday, busdata.Weekend} {
						stats = append(stats, sqlstore.StatRow{
							Attribute: r.Attribute, Location: loc,
							Hour: h, Day: day, Mean: -1e6, Stdv: 0,
						})
					}
				}
			}
		}
		if err := store.Put(stats); err != nil {
			t.Fatal(err)
		}
		return db, store
	}

	// run executes the topology and returns the detection multiset keyed by
	// everything except the engine column. With a rebalancer it holds the
	// feed at the BusReader after its first quarter, so that one skew check
	// from the test goroutine swaps the table with most of the feed still to
	// come.
	run := func(t *testing.T, cfg TrafficConfig, db *sqlstore.DB) map[string]int {
		t.Helper()
		gate := &gatedReader{at: len(traces) / 4, held: make(chan struct{}), open: make(chan struct{})}
		reg, deps := storm.NewRegistry(), &Deps{Config: cfg}
		RegisterComponents(reg, deps)
		reg.RegisterSpout("busreader", func(map[string]string) (storm.SpoutFactory, error) {
			return func() storm.Spout { return gate.reader(traces) }, nil
		})
		topo, err := build(&deps.Config, reg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := storm.New(topo)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Rebalancer == nil {
			close(gate.open)
		}
		ran := make(chan error, 1)
		go func() { ran <- rt.Run() }()
		if reb := cfg.Rebalancer; reb != nil {
			splitterExecuted := func() uint64 { return componentTotal(rt, CompSplitter).Executed }
			ready := func() bool { return splitterExecuted() >= uint64(gate.at/2) }
			swapMidFeed(t, reb, gate.held, func() { close(gate.open) }, ready, splitterExecuted, len(traces))
		}
		if err := <-ran; err != nil {
			t.Fatal(err)
		}
		rows, err := db.Query(`SELECT rule, location, observed, threshold FROM events`)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int, len(rows))
		for _, r := range rows {
			out[fmt.Sprintf("%v|%v|%v|%v", r["rule"], r["location"], r["observed"], r["threshold"])]++
		}
		return out
	}

	// Every engine installs every rule, restricted to the locations it
	// serves on the rule's field.
	setupFor := func(store *sqlstore.ThresholdStore, table *RoutingTable) func(int, *cep.Engine) ([]*InstalledRule, error) {
		return func(task int, eng *cep.Engine) ([]*InstalledRule, error) {
			var installs []*InstalledRule
			for _, r := range rules {
				inst, err := InstallRule(eng, r, InstallOptions{
					Store: store, Locations: table.Locations(r.LocationField(), task),
				})
				if err != nil {
					return nil, err
				}
				installs = append(installs, inst)
			}
			return installs, nil
		}
	}
	tableOf := func(parts map[string]*Partition) *RoutingTable {
		table := NewRoutingTable(RouteByLocation, engines)
		for _, f := range fields {
			if err := table.AddPartition(f, parts[f], tasks); err != nil {
				t.Fatal(err)
			}
		}
		return table
	}

	// Run A: balanced static routing.
	dbA, storeA := seedThresholds(t)
	partsA := map[string]*Partition{}
	for _, f := range fields {
		part, err := PartitionRegions(uniform[f], engines)
		if err != nil {
			t.Fatal(err)
		}
		partsA[f] = part
	}
	tableA := tableOf(partsA)
	static := run(t, TrafficConfig{
		Traces: traces, Tree: tree, Engines: engines, Routing: tableA, DB: dbA,
		EngineSetup: setupFor(storeA, tableA),
	}, dbA)

	// Run B: every location of the skewed field but the resident ones starts
	// on engine 0, the other field as in run A; the rebalancer must notice
	// the skew mid-feed and swap routes.
	dbB, storeB := seedThresholds(t)
	skew := &Partition{
		Engines:    make([][]RegionRate, engines),
		Rate:       make([]float64, engines),
		ByLocation: make(map[string]int, len(uniform[skewed])),
	}
	for _, r := range uniform[skewed] {
		engine := 0
		if resident[r.Location] {
			engine = 1
		}
		skew.Engines[engine] = append(skew.Engines[engine], r)
		skew.Rate[engine] += r.Rate
		skew.ByLocation[r.Location] = engine
	}
	partsB := maps.Clone(partsA)
	partsB[skewed] = skew
	tableB := tableOf(partsB)
	reb, err := NewRebalancer(RebalancerConfig{
		Routing:       tableB,
		SkewThreshold: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.NewRegistry()
	rebalanced := run(t, TrafficConfig{
		Traces: traces, Tree: tree, Engines: engines, Rebalancer: reb, DB: dbB, Telemetry: tel,
		EngineSetup: setupFor(storeB, tableB),
	}, dbB)
	reb.Stop()

	if tot := reb.Totals(); tot.Swaps < 1 || tot.Moves == 0 {
		t.Fatalf("rebalancer never swapped mid-feed: %+v", tot)
	}
	snap := tel.Gather()
	if _, ok := snap.Get("core.splitter.unrouted"); !ok {
		t.Fatal("Telemetry is set but the Splitter registered no core.splitter.unrouted")
	}
	if set == "stopDelay+stopActual" {
		// Every engine installed both rules before any event, and a
		// migration installs nothing: one lastevent and one groupwin view
		// between them, on every engine; their thresholds are tables.
		for engine := 0; engine < engines; engine++ {
			views, _ := snap.Get(fmt.Sprintf("cep.engine%d.views", engine))
			subs, _ := snap.Get(fmt.Sprintf("cep.engine%d.view_subscriptions", engine))
			if views.Value != 2 || subs.Value != 4 {
				t.Fatalf("engine %d: %v views under %v subscriptions, want 2 under 4", engine, views.Value, subs.Value)
			}
		}
	}
	if len(static) == 0 {
		t.Fatal("static run produced no detections")
	}
	for _, r := range rules {
		fired := false
		for k := range static {
			fired = fired || strings.HasPrefix(k, r.Name+"|")
		}
		if !fired {
			t.Fatalf("rule %s never fired in the static run", r.Name)
		}
	}
	for k, n := range rebalanced {
		if n > static[k] {
			t.Fatalf("extra detection %q in rebalanced run: %d vs %d", k, n, static[k])
		}
	}
	for k, n := range static {
		if rebalanced[k] != n {
			t.Fatalf("detection %q: static %d, rebalanced %d", k, n, rebalanced[k])
		}
	}
}

// swapMidFeed runs one skew check from the test goroutine once the feed is
// held at a gate (held closed) and ready reports the run far enough along
// (tuples observed), and requires the cycle to swap the routing table while
// the Splitter still has tuples to come: it reads the Splitter's executed
// count when the new table is in, opens the gate at once, and returns the
// cycle's report.
func swapMidFeed(t *testing.T, reb *Rebalancer, held <-chan struct{}, open func(), ready func() bool, splitterExecuted func() uint64, total int) RebalanceReport {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	select {
	case <-held:
	case <-time.After(30 * time.Second):
		open()
		t.Fatal("the feed never reached the gate")
	}
	for !ready() {
		if time.Now().After(deadline) {
			open()
			t.Fatalf("the run never got ready for the cycle (the Splitter executed %d tuples)", splitterExecuted())
		}
		time.Sleep(100 * time.Microsecond)
	}
	initial := reb.Table()
	type result struct {
		rep RebalanceReport
		err error
	}
	cycled := make(chan result, 1)
	go func() {
		rep, err := reb.MaybeRebalance()
		cycled <- result{rep, err}
	}()
	for reb.Table() == initial {
		select {
		case res := <-cycled:
			open()
			t.Fatalf("the cycle ended without a swap: %+v, %v", res.rep, res.err)
		default:
		}
		if time.Now().After(deadline) {
			open()
			t.Fatal("no swap within 30s of the gate")
		}
		time.Sleep(100 * time.Microsecond)
	}
	executed := splitterExecuted()
	open()
	if executed >= uint64(total) {
		t.Errorf("the swap landed after the Splitter's last tuple: %d of %d executed", executed, total)
	}
	res := <-cycled
	if res.err != nil {
		t.Fatalf("rebalance cycle: %v", res.err)
	}
	return res.rep
}

// componentTotal is one component's counters on rt's worker.
func componentTotal(rt *storm.Runtime, component string) storm.ComponentTotal {
	for _, tot := range rt.Monitor().TotalsByComponent() {
		if tot.Component == component {
			return tot
		}
	}
	return storm.ComponentTotal{}
}
