package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/storm"
	"trafficcep/internal/telemetry"
)

// This file closes the dynamic loop of §4.2.1: the paper asks for input
// rates to be "incrementally update[d] while the application runs", so the
// Splitter feeds its observed locations into per-field RateEstimators and a
// Rebalancer, on a wall-clock interval off the data path, re-runs Algorithm
// 1 from the live snapshot when the skew trigger fires, diffs the resulting
// routing table against the installed one, and swaps the table atomically.
// Readers never block and never see a half-built table. The ownership
// change travels with the data: the Splitter sends it to each affected
// engine ahead of the first tuple it routes under the new table
// (splitterBolt.handOver), and the engine loads the thresholds of what it
// gains as it applies it (esperBolt.own).

// Keys of an ownership tuple, the one kind of tuple on the Splitter's routed
// edge that is not a trace: the location field, and the locations of it the
// receiving engine gains and loses ([]string each).
const (
	ownField  = "own.field"
	ownGained = "own.gained"
	ownLost   = "own.lost"
)

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
	// Duration is the wall-clock cost of the cycle: snapshot, rebuild, diff
	// and swap. It touches no engine and no other worker.
	Duration time.Duration
}

// RebalanceTotals aggregates rebalancing activity over the run.
type RebalanceTotals struct {
	Cycles uint64 // skew checks performed
	Swaps  uint64 // routing tables installed
	Moves  uint64 // locations migrated
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
	// Telemetry, when set, receives core.rebalance.* metrics.
	Telemetry *telemetry.Registry
}

// Rebalancer re-runs Algorithm 1 over live rate estimates and swaps the
// routing table when the per-engine load skews. Observe is safe to call
// concurrently with table reads; rebalance cycles are serialized.
//
// A cycle is rebuild → diff → swap, and touches no engine and no other
// worker. Every engine installs every rule at start, restricted to the
// locations it owns, so a migration never compiles or removes a statement.
// The Splitter, the one task that routes, notices the new table on its next
// tuple and hands ownership over on the same edges the rows travel (see
// splitterBolt.handOver); the gaining engine loads the gained locations'
// thresholds while it applies the ownership tuple, before its next row. So
// per-edge FIFO makes the change exact: every row routed under the old
// table is evaluated by the old owners, every row routed under the new one
// by the new owners, with their thresholds in place. Under an ack mode a
// replay of a pre-swap tuple re-routes through the new table. Ownership and
// window contents are not part of an epoch checkpoint.
type Rebalancer struct {
	// table is the installed routing table. The Splitter loads it on every
	// tuple; a cycle swaps in a freshly built one. An installed table is
	// never mutated.
	table  atomic.Pointer[RoutingTable]
	fields []string
	est    map[string]*RateEstimator
	skew   float64

	mu     sync.Mutex // serializes cycles, guards the fields below
	totals RebalanceTotals
	last   RebalanceReport

	tickStop chan struct{}
	tickWG   sync.WaitGroup

	mCycles, mSwaps, mMoves *telemetry.Counter
	mSkew, mDuration        *telemetry.Gauge
}

// NewRebalancer builds a Rebalancer around an initial routing table. The
// table becomes owned by the rebalancer and must not be mutated afterwards.
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
		fields: append([]string(nil), cfg.Routing.fields...),
		est:    make(map[string]*RateEstimator, len(cfg.Routing.fields)),
		skew:   cfg.SkewThreshold,
	}
	rb.table.Store(cfg.Routing)
	for _, f := range rb.fields {
		rb.est[f] = NewRateEstimator(nil, cfg.Alpha)
	}
	if reg := cfg.Telemetry; reg != nil {
		rb.mCycles = reg.Counter("core.rebalance.cycles")
		rb.mSwaps = reg.Counter("core.rebalance.swaps")
		rb.mMoves = reg.Counter("core.rebalance.moves")
		rb.mSkew = reg.Gauge("core.rebalance.skew")
		rb.mDuration = reg.Gauge("core.rebalance.last_duration_ns")
	}
	return rb, nil
}

// Table returns the currently installed routing table.
func (rb *Rebalancer) Table() *RoutingTable { return rb.table.Load() }

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

// Bind attaches the rebalancer to the runtime that runs its topology, the
// same way on one worker or on each of N: when interval > 0 and this worker
// hosts the Splitter — the one worker that observes the feed's location
// rates — a skew check (MaybeRebalance) runs every interval until Stop.
// Call it once, before the runtime runs.
func (rb *Rebalancer) Bind(rt *storm.Runtime, interval time.Duration) {
	if interval <= 0 {
		return
	}
	for _, p := range rt.Placements() {
		if p.Component == CompSplitter && p.Worker == rt.WorkerID() {
			rb.start(interval)
			return
		}
	}
}

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

// Stop ends the periodic checker, if running.
func (rb *Rebalancer) Stop() {
	if rb.tickStop != nil {
		close(rb.tickStop)
		rb.tickWG.Wait()
		rb.tickStop = nil
	}
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

// cycle is one rebalance pass: snapshot rates, check skew, and — when
// triggered or forced — rebuild, diff and swap.
func (rb *Rebalancer) cycle(force bool) (RebalanceReport, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	start := time.Now()

	table := rb.table.Load()
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

// swapLocked rebuilds the table from rates and, if anything moved, swaps.
// Called with rb.mu held.
func (rb *Rebalancer) swapLocked(table *RoutingTable, rates map[string][]RegionRate, rep *RebalanceReport) error {
	fresh, err := rb.rebuild(table, rates)
	if err != nil {
		return err
	}
	moves := diffTables(table, fresh, rb.fields)
	if len(moves) == 0 {
		return nil
	}
	rb.table.Store(fresh)
	rep.Swapped = true
	rep.Moves = moves
	rep.SkewAfter = rb.skewOf(fresh, rates)
	rb.totals.Swaps++
	rb.totals.Moves += uint64(len(moves))
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
