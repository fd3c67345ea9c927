package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/cep"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// This file closes the dynamic loop of §4.2.1: the paper asks for input
// rates to be "incrementally update[d] while the application runs", so the
// Splitter feeds its observed locations into per-field RateEstimators and a
// Rebalancer, on a wall-clock interval off the data path, re-runs Algorithm
// 1 from the live snapshot when the skew trigger fires, diffs the resulting
// routing table against the installed one, migrates the affected rule
// statements, and swaps the table atomically. Readers never block and never
// see a half-built table.

// RoutingHandle is an atomically swappable reference to an immutable
// RoutingTable. The Splitter loads it on every tuple; the Rebalancer swaps
// in freshly built tables. Tables must not be mutated after installation.
type RoutingHandle struct {
	p atomic.Pointer[RoutingTable]
}

// NewRoutingHandle installs an initial table.
func NewRoutingHandle(rt *RoutingTable) *RoutingHandle {
	h := &RoutingHandle{}
	h.p.Store(rt)
	return h
}

// Load returns the current table.
func (h *RoutingHandle) Load() *RoutingTable { return h.p.Load() }

// Swap installs a new table and returns the previous one.
func (h *RoutingHandle) Swap(rt *RoutingTable) *RoutingTable { return h.p.Swap(rt) }

// Move records one location changing engines during a rebalance.
type Move struct {
	Field    string
	Location string
	From     []int // engine tasks that served the location before
	To       []int // engine tasks that serve it after
}

// RebalanceReport summarizes one rebalance cycle.
type RebalanceReport struct {
	// Swapped is true when a new routing table was installed.
	Swapped bool
	// Moves lists the locations that changed engines (empty when the fresh
	// partition matched the installed one).
	Moves []Move
	// SkewBefore/SkewAfter are the max/mean per-engine input-rate ratios
	// under the old and new tables, measured on the same rate snapshot.
	SkewBefore, SkewAfter float64
	// Duration is the wall-clock cost of the cycle, including migration.
	Duration time.Duration
	// ReleasesDeferred counts source-release operations postponed to the
	// next cycle because the drain failed.
	ReleasesDeferred int
}

// RebalanceTotals aggregates rebalancing activity over the run.
type RebalanceTotals struct {
	Cycles   uint64 // skew checks performed
	Swaps    uint64 // routing tables installed
	Moves    uint64 // locations migrated
	Deferred uint64 // source releases postponed by a failed drain
}

// RebalancerConfig configures NewRebalancer.
type RebalancerConfig struct {
	// Routing is the initial table; must use RouteByLocation (RouteAll has
	// nothing to rebalance).
	Routing *RoutingTable
	// SkewThreshold triggers a rebalance when the max/mean per-engine
	// input-rate ratio meets or exceeds it. Defaults to 2.
	SkewThreshold float64
	// Alpha is the rate estimators' smoothing factor per estimation
	// window, as in NewRateEstimator. 0 defaults to 0.5.
	Alpha float64
	// Migrator moves rule statements between engines once the rebalancer
	// is bound to a runtime (Bind); nil skips statement migration
	// (routing-only rebalancing, e.g. experiments).
	Migrator *RuleMigrator
	// Telemetry, when set, receives core.rebalance.* metrics.
	Telemetry *telemetry.Registry
}

// drainTimeout bounds the post-swap drain of the engines; past it the
// source releases wait for the next cycle.
const drainTimeout = 10 * time.Second

// releaseOp is one deferred ReleaseSource call.
type releaseOp struct {
	task      int
	field     string
	locations []string
}

// Rebalancer re-runs Algorithm 1 over live rate estimates and swaps the
// routing table when the per-engine load skews. Observe is safe to call
// concurrently with table reads; rebalance cycles are serialized.
//
// Rule migration is make-before-break: the gaining engines are prepared
// (locations owned, statements installed, thresholds loaded) before the
// table swap, and the losing engines are released only after the swap and
// a drain of the engines (storm.Runtime.DrainComponent) proved that every
// tuple routed under the old table was executed; a failed drain defers the
// releases to the next cycle. No tuple of a moved location misses its
// engine, but from the prepare to the release both engines own it: a trace
// routed to either of them for its other location field meanwhile is
// evaluated there as well. The drain proves execution, not acking: under
// an ack mode a replay of a pre-swap tuple re-routes through the new table,
// which is exactly the semantics the release needs.
type Rebalancer struct {
	handle   *RoutingHandle
	fields   []string
	est      map[string]*RateEstimator
	skew     float64
	migrator *RuleMigrator

	mu       sync.Mutex     // serializes cycles, guards the fields below
	rt       *storm.Runtime // set by Bind
	workerOf map[int]int    // engine task → worker it was placed on
	pending  []releaseOp
	totals   RebalanceTotals
	last     RebalanceReport

	tickStop chan struct{}
	tickWG   sync.WaitGroup

	mCycles, mSwaps, mMoves, mDeferred *telemetry.Counter
	mSkew, mDuration                   *telemetry.Gauge
}

// NewRebalancer builds a Rebalancer around an initial routing table. The
// table becomes owned by the rebalancer's handle and must not be mutated
// afterwards.
func NewRebalancer(cfg RebalancerConfig) (*Rebalancer, error) {
	if cfg.Routing == nil {
		return nil, fmt.Errorf("core: rebalancer requires an initial routing table")
	}
	if cfg.Routing.Mode != RouteByLocation {
		return nil, fmt.Errorf("core: rebalancer requires RouteByLocation routing")
	}
	if cfg.SkewThreshold <= 1 {
		cfg.SkewThreshold = 2
	}
	rb := &Rebalancer{
		handle:   NewRoutingHandle(cfg.Routing),
		fields:   append([]string(nil), cfg.Routing.fields...),
		est:      make(map[string]*RateEstimator, len(cfg.Routing.fields)),
		skew:     cfg.SkewThreshold,
		migrator: cfg.Migrator,
	}
	for _, f := range rb.fields {
		rb.est[f] = NewRateEstimator(nil, cfg.Alpha)
	}
	if reg := cfg.Telemetry; reg != nil {
		rb.mCycles = reg.Counter("core.rebalance.cycles")
		rb.mSwaps = reg.Counter("core.rebalance.swaps")
		rb.mMoves = reg.Counter("core.rebalance.moves")
		rb.mDeferred = reg.Counter("core.rebalance.deferred")
		rb.mSkew = reg.Gauge("core.rebalance.skew")
		rb.mDuration = reg.Gauge("core.rebalance.last_duration_ns")
	}
	return rb, nil
}

// Handle returns the swappable routing handle the Splitter reads.
func (rb *Rebalancer) Handle() *RoutingHandle { return rb.handle }

// Table returns the currently installed routing table.
func (rb *Rebalancer) Table() *RoutingTable { return rb.handle.Load() }

// Observe records one tuple's location fields in the rate estimators.
// Called by the Splitter for every tuple; cycles never run on its
// goroutine.
func (rb *Rebalancer) Observe(values map[string]any) {
	for _, f := range rb.fields {
		if loc, _ := values[f].(string); loc != "" {
			rb.est[f].Observe(loc)
		}
	}
}

// MaybeRebalance closes the current estimation window and rebalances only
// if the skew trigger fires (what the interval Bind starts runs).
func (rb *Rebalancer) MaybeRebalance() (RebalanceReport, error) { return rb.cycle(false) }

// RebalanceOnce closes the current estimation window and rebalances
// unconditionally.
func (rb *Rebalancer) RebalanceOnce() (RebalanceReport, error) { return rb.cycle(true) }

// start launches a wall-clock skew check every interval; Stop ends it.
func (rb *Rebalancer) start(interval time.Duration) {
	rb.tickStop = make(chan struct{})
	rb.tickWG.Add(1)
	go func() {
		defer rb.tickWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-rb.tickStop:
				return
			case <-t.C:
				rb.MaybeRebalance()
			}
		}
	}()
}

// Stop ends the periodic checker (if running) and flushes any deferred
// source releases.
func (rb *Rebalancer) Stop() {
	if rb.tickStop != nil {
		close(rb.tickStop)
		rb.tickWG.Wait()
		rb.tickStop = nil
	}
	rb.mu.Lock()
	rb.flushPendingLocked()
	rb.mu.Unlock()
}

// Totals returns aggregate rebalancing activity.
func (rb *Rebalancer) Totals() RebalanceTotals {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.totals
}

// LastReport returns the most recent cycle's report.
func (rb *Rebalancer) LastReport() RebalanceReport {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.last
}

// cycle is one rebalance pass: flush deferred releases, snapshot rates,
// check skew, and — when triggered or forced — rebuild, migrate and swap.
func (rb *Rebalancer) cycle(force bool) (RebalanceReport, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	start := time.Now()
	rb.flushPendingLocked()

	table := rb.handle.Load()
	rates := make(map[string][]RegionRate, len(rb.fields))
	for _, f := range rb.fields {
		rates[f] = withTableLocations(table, f, rb.est[f].Snapshot())
	}
	// The snapshot is taken; close the estimation window regardless of the
	// outcome so the next cycle sees fresh rates.
	for _, f := range rb.fields {
		rb.est[f].Decay()
	}

	rep := RebalanceReport{SkewBefore: rb.skewOf(table, rates)}
	rep.SkewAfter = rep.SkewBefore
	rb.totals.Cycles++

	var err error
	if force || rep.SkewBefore >= rb.skew {
		err = rb.swapLocked(table, rates, &rep)
	}
	rep.Duration = time.Since(start)
	rb.last = rep
	rb.publishLocked(rep)
	return rep, err
}

// swapLocked rebuilds the table from rates and, if anything moved,
// migrates and swaps. Called with rb.mu held.
func (rb *Rebalancer) swapLocked(table *RoutingTable, rates map[string][]RegionRate, rep *RebalanceReport) error {
	fresh, err := rb.rebuild(table, rates)
	if err != nil {
		return err
	}
	moves := diffTables(table, fresh, rb.fields)
	if len(moves) == 0 {
		return nil
	}
	adds, rems := groupMoves(moves)
	if rb.migrator != nil {
		if rb.rt == nil {
			return fmt.Errorf("core: rebalance aborted: the rebalancer migrates rules but is not bound to a runtime (Bind)")
		}
		// Make-before-break: targets must be able to serve their new
		// locations before any tuple is routed to them. A failure here
		// aborts the swap; extra prepared state on targets is harmless.
		if err := rb.applyOps(adds, rb.migrate(MethodPrepareTarget)); err != nil {
			return fmt.Errorf("core: rebalance aborted preparing targets: %w", err)
		}
	}
	rb.handle.Swap(fresh)
	rep.Swapped = true
	rep.Moves = moves
	rep.SkewAfter = rb.skewOf(fresh, rates)
	rb.totals.Swaps++
	rb.totals.Moves += uint64(len(moves))

	if rb.migrator != nil {
		if rb.rt.DrainComponent(CompEsper, drainTimeout) == nil {
			// ReleaseSource failures leave stale (unreachable) statements
			// behind; routing correctness is unaffected.
			_ = rb.applyOps(rems, rb.migrate(MethodReleaseSource))
		} else {
			for task, byField := range rems {
				for field, locs := range byField {
					rb.pending = append(rb.pending, releaseOp{task: task, field: field, locations: locs})
					rep.ReleasesDeferred++
				}
			}
			rb.totals.Deferred += uint64(rep.ReleasesDeferred)
		}
	}
	return nil
}

// flushPendingLocked retries deferred source releases. Called with rb.mu
// held.
func (rb *Rebalancer) flushPendingLocked() {
	release := rb.migrate(MethodReleaseSource)
	for _, op := range rb.pending {
		_ = release(op.task, op.field, op.locations)
	}
	rb.pending = nil
}

// applyOps runs a migrator hook for every (task, field) group in
// deterministic order.
func (rb *Rebalancer) applyOps(ops map[int]map[string][]string, fn func(task int, field string, locations []string) error) error {
	tasks := make([]int, 0, len(ops))
	for t := range ops {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	for _, t := range tasks {
		fields := make([]string, 0, len(ops[t]))
		for f := range ops[t] {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			locs := append([]string(nil), ops[t][f]...)
			sort.Strings(locs)
			if err := fn(t, f, locs); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuild runs Algorithm 1 per location field over the snapshot and
// assembles a fresh table on the same engine task sets as the old one.
func (rb *Rebalancer) rebuild(table *RoutingTable, rates map[string][]RegionRate) (*RoutingTable, error) {
	fresh := NewRoutingTable(table.Mode, table.Engines)
	for _, f := range rb.fields {
		tasks := table.taskSets[f]
		if len(tasks) == 0 {
			continue
		}
		part, err := PartitionRegions(rates[f], len(tasks))
		if err != nil {
			return nil, err
		}
		if err := fresh.AddPartition(f, part, tasks); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// skewOf computes max/mean aggregate input rate over the engine tasks of a
// table, under the given snapshot. 1 means perfectly balanced (or nothing
// to measure).
func (rb *Rebalancer) skewOf(table *RoutingTable, rates map[string][]RegionRate) float64 {
	perTask := make(map[int]float64)
	for _, f := range rb.fields {
		for _, t := range table.taskSets[f] {
			perTask[t] += 0
		}
		for _, r := range rates[f] {
			for _, t := range table.routes[f][r.Location] {
				perTask[t] += r.Rate
			}
		}
	}
	if len(perTask) == 0 {
		return 1
	}
	max, sum := 0.0, 0.0
	for _, v := range perTask {
		if v > max {
			max = v
		}
		sum += v
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(perTask)))
}

// publishLocked pushes a cycle's results into telemetry. Called with rb.mu
// held.
func (rb *Rebalancer) publishLocked(rep RebalanceReport) {
	if rb.mCycles == nil {
		return
	}
	rb.mCycles.Inc()
	if rep.Swapped {
		rb.mSwaps.Inc()
		rb.mMoves.Add(uint64(len(rep.Moves)))
		rb.mDeferred.Add(uint64(rep.ReleasesDeferred))
	}
	rb.mSkew.Set(rep.SkewAfter)
	rb.mDuration.Set(float64(rep.Duration.Nanoseconds()))
}

// withTableLocations appends zero-rate entries for locations the installed
// table routes but the snapshot has not seen this window, so a quiet
// location never loses its route (it would otherwise become unrouted).
func withTableLocations(table *RoutingTable, field string, snap []RegionRate) []RegionRate {
	seen := make(map[string]bool, len(snap))
	for _, r := range snap {
		seen[r.Location] = true
	}
	for loc := range table.routes[field] {
		if !seen[loc] {
			snap = append(snap, RegionRate{Location: loc, Rate: 0})
		}
	}
	return snap
}

// diffTables lists the locations whose engine task set changed.
func diffTables(old, fresh *RoutingTable, fields []string) []Move {
	var moves []Move
	for _, f := range fields {
		locs := make([]string, 0, len(old.routes[f])+len(fresh.routes[f]))
		seen := make(map[string]bool)
		for loc := range old.routes[f] {
			locs = append(locs, loc)
			seen[loc] = true
		}
		for loc := range fresh.routes[f] {
			if !seen[loc] {
				locs = append(locs, loc)
			}
		}
		sort.Strings(locs)
		for _, loc := range locs {
			o := sortedCopy(old.routes[f][loc])
			n := sortedCopy(fresh.routes[f][loc])
			if !equalInts(o, n) {
				moves = append(moves, Move{Field: f, Location: loc, From: o, To: n})
			}
		}
	}
	return moves
}

// groupMoves splits a move list into per-(task, field) location additions
// and removals.
func groupMoves(moves []Move) (adds, rems map[int]map[string][]string) {
	adds = make(map[int]map[string][]string)
	rems = make(map[int]map[string][]string)
	put := func(m map[int]map[string][]string, task int, field, loc string) {
		byField, ok := m[task]
		if !ok {
			byField = make(map[string][]string)
			m[task] = byField
		}
		byField[field] = append(byField[field], loc)
	}
	for _, mv := range moves {
		for _, t := range mv.To {
			if !containsInt(mv.From, t) {
				put(adds, t, mv.Field, mv.Location)
			}
		}
		for _, t := range mv.From {
			if !containsInt(mv.To, t) {
				put(rems, t, mv.Field, mv.Location)
			}
		}
	}
	return adds, rems
}

func sortedCopy(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// RuleMigrator performs the engine-side half of a routing swap for the
// Figure 8 topology under the paper's adopted threshold-stream strategy:
// moving a location to a target engine means adding it to the engine's
// owned-key set for its field, installing the affected rules there (if
// absent) and loading the location's thresholds into the rules' threshold
// streams; releasing a source takes the location out of the source's set
// and removes the field's statements once the set is empty. It acts on the
// engines of its own worker; a bound Rebalancer reaches it on every worker
// through the control plane (Bind).
//
// Engines self-register during EsperBolt.Prepare. A DynamicManager batch
// refresh must not run during a cycle: it rebuilds the statements of the
// same installations, and loads thresholds for what each engine owns when
// it runs. trafficd never overlaps the two: its one batch run precedes the
// topology.
type RuleMigrator struct {
	// Rules is the full rule set; only rules whose LocationField matches
	// the migrated field are touched.
	Rules []Rule
	// Store supplies thresholds for target installs.
	Store *sqlstore.ThresholdStore
	// Manager, when set, tracks installs created and removed by migration
	// so batch refreshes stay accurate.
	Manager *DynamicManager

	mu       sync.Mutex
	engines  map[int]*cep.Engine
	forward  map[int]cep.Listener
	installs map[int]map[string]*InstalledRule // task → rule name → install
}

// registerEngine records the engine, its initial installations and the
// detection-forwarding listener of one EsperBolt task on this worker.
func (m *RuleMigrator) registerEngine(task int, eng *cep.Engine, installs []*InstalledRule, forward cep.Listener) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.engines == nil {
		m.engines = make(map[int]*cep.Engine)
		m.forward = make(map[int]cep.Listener)
		m.installs = make(map[int]map[string]*InstalledRule)
	}
	m.engines[task] = eng
	m.forward[task] = forward
	byName := make(map[string]*InstalledRule, len(installs))
	for _, inst := range installs {
		byName[inst.Rule.Name] = inst
	}
	m.installs[task] = byName
}

// PrepareTarget makes task's engine ready to serve the listed locations of
// one location field: it adds them to the engine's owned-key set for the
// field, installs the field's rules the engine lacks and loads the gained
// locations' thresholds into the restricted ones it has. Rules whose
// locations have no stored thresholds are skipped (they cannot fire
// anyway). An error aborts the swap; the old table stays live.
func (m *RuleMigrator) PrepareTarget(task int, field string, locations []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	eng := m.engines[task]
	if eng == nil {
		return fmt.Errorf("core: no engine registered for task %d", task)
	}
	gained := make(map[string]bool)
	for _, l := range eng.Own(BusStream, field, locations...) {
		gained[l] = true
	}
	for _, r := range m.Rules {
		if r.LocationField() != field {
			continue
		}
		inst := m.installs[task][r.Name]
		var err error
		switch {
		case inst == nil:
			inst, err = InstallRule(eng, r, InstallOptions{Strategy: StrategyStream, Store: m.Store, Locations: gained})
			if err == nil {
				if fwd := m.forward[task]; fwd != nil {
					inst.AddListener(fwd)
				}
				m.installs[task][r.Name] = inst
				if m.Manager != nil {
					m.Manager.Register(inst)
				}
			}
		case inst.restricted() && len(gained) > 0:
			err = loadThresholdStream(eng, r, m.Store, gained)
		}
		if err != nil && !errors.Is(err, errNoThresholds) {
			return fmt.Errorf("core: preparing rule %q on task %d: %w", r.Name, task, err)
		}
	}
	return nil
}

// ReleaseSource retires the listed locations from task's engine: they leave
// its owned-key set for the field, so its rules stop windowing and
// evaluating them, a trace the engine still receives for its other location
// field included; once the engine owns no location of the field, the
// field's restricted rules are removed. Their thresholds and window
// contents for the released locations stay until a batch Refresh.
func (m *RuleMigrator) ReleaseSource(task int, field string, locations []string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	eng := m.engines[task]
	if eng == nil || eng.Disown(BusStream, field, locations...) > 0 {
		return nil
	}
	for _, r := range m.Rules {
		inst := m.installs[task][r.Name]
		if r.LocationField() != field || inst == nil || !inst.restricted() {
			continue
		}
		inst.Remove()
		delete(m.installs[task], r.Name)
		if m.Manager != nil {
			m.Manager.Unregister(inst)
		}
	}
	return nil
}
