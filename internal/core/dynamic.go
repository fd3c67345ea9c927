package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/dfs"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/telemetry"
)

// HistoryRecord is one pre-processed trace kept for the batch layer (§3.2:
// "The pre-processed data before being forwarded to the Esper engines, are
// stored to a distributed filesystem"). DynamicManager folds it into
// per-key partials.
type HistoryRecord struct {
	Hour        int
	Day         busdata.DayType
	StopID      string
	Areas       []string // quadtree path, root first
	Delay       float64
	ActualDelay float64
	Speed       float64
	Congestion  bool
}

// values returns the record's value of every monitorable attribute, in
// busdata.Attributes order.
func (h HistoryRecord) values() [4]float64 {
	cong := 0.0
	if h.Congestion {
		cong = 1
	}
	return [4]float64{h.Delay, h.ActualDelay, h.Speed, cong}
}

// moments is the mergeable partial of one attribute's values at one key:
// Σv and Σv². DynamicManager and the reference MapReduce job its tests run
// (statsReducer) both fold through add and finish through meanStdv, so the
// same values in the same order give bit-identical statistics on either
// path.
type moments struct{ sum, sumSq float64 }

func (m *moments) add(v float64) {
	m.sum += v
	m.sumSq += v * v
}

// meanStdv returns the mean and the sample standard deviation of the n
// values folded into m (§4.1.3: "The reducers aggregate the parameters'
// values for the different spatial locations and then compute the mean and
// the standard deviation").
func (m moments) meanStdv(n int) (mean, stdv float64) {
	mean = m.sum / float64(n)
	if n > 1 {
		variance := (m.sumSq - float64(n)*mean*mean) / float64(n-1)
		if variance > 0 {
			stdv = math.Sqrt(variance)
		}
	}
	return mean, stdv
}

// statKey is one (location, hour, day-type) a threshold is computed for.
type statKey struct {
	location string
	hour     int
	day      busdata.DayType
}

// statPartial is the mergeable partial of one statKey: the record count and
// the moments of each attribute, in busdata.Attributes order.
type statPartial struct {
	n     int
	attrs [4]moments
}

// DynamicManager wires the batch loop of §4.1.3 together: it folds every
// history record into per-(location, hour, day-type) partials as the stream
// delivers it, and on each RunOnce turns them into mean/stdv rows, upserts
// those into the storage medium, and refreshes every registered rule
// installation so the running engines pick up the new thresholds in real
// time. The tests compute the same rows from history lines with a
// MapReduce job (RunStatsJob), the reference the partials are held to.
type DynamicManager struct {
	// FS is no longer read: history is folded into in-memory partials
	// instead of written to a file. The benchmark adapter still sets it, so
	// it is deleted with ROADMAP item 1, which changes that adapter.
	FS    *dfs.FS
	Store *sqlstore.ThresholdStore
	// Telemetry, when non-nil, receives the duration of each RunOnce as the
	// core.batch.run_ns histogram.
	Telemetry *telemetry.Registry

	mu       sync.Mutex
	installs []*InstalledRule
	runs     int
	partials map[statKey]*statPartial

	historyRecs atomic.Uint64
	statRows    atomic.Uint64
}

// Register adds a rule installation to be refreshed after each batch run.
func (m *DynamicManager) Register(inst *InstalledRule) {
	m.mu.Lock()
	m.installs = append(m.installs, inst)
	m.mu.Unlock()
}

// AppendHistory folds one record into the partials of every location it
// covers: its bus stop, when it has one, and each quadtree area on its path.
// It always returns nil.
func (m *DynamicManager) AppendHistory(rec HistoryRecord) error {
	values := rec.values()
	key := statKey{hour: rec.Hour, day: rec.Day}
	m.mu.Lock()
	if m.partials == nil {
		m.partials = make(map[statKey]*statPartial)
	}
	if rec.StopID != "" {
		key.location = rec.StopID
		m.fold(key, values)
	}
	for _, area := range rec.Areas {
		key.location = area
		m.fold(key, values)
	}
	m.mu.Unlock()
	m.historyRecs.Add(1)
	return nil
}

// fold adds one record's values to key's partial; m.mu is held.
func (m *DynamicManager) fold(key statKey, values [4]float64) {
	p := m.partials[key]
	if p == nil {
		p = new(statPartial)
		m.partials[key] = p
	}
	p.n++
	for i, v := range values {
		p.attrs[i].add(v)
	}
}

// statistics turns the partials into one row per (attribute, location,
// hour, day-type), sorted in that order so a run is deterministic.
func (m *DynamicManager) statistics() []sqlstore.StatRow {
	m.mu.Lock()
	rows := make([]sqlstore.StatRow, 0, len(m.partials)*len(busdata.Attributes))
	for key, p := range m.partials {
		for i, attr := range busdata.Attributes {
			mean, stdv := p.attrs[i].meanStdv(p.n)
			rows = append(rows, sqlstore.StatRow{
				Attribute: attr, Location: key.location,
				Hour: key.hour, Day: key.day, Mean: mean, Stdv: stdv,
			})
		}
	}
	m.mu.Unlock()
	slices.SortFunc(rows, compareStatRows)
	return rows
}

// compareStatRows orders rows by (attribute, location, hour, day-type).
func compareStatRows(a, b sqlstore.StatRow) int {
	return cmp.Or(
		strings.Compare(a.Attribute, b.Attribute),
		strings.Compare(a.Location, b.Location),
		cmp.Compare(a.Hour, b.Hour),
		cmp.Compare(a.Day, b.Day),
	)
}

// RunOnce executes one batch cycle: partials → statistic rows → store
// upsert → rule refresh. It returns the number of statistic rows produced,
// and an error when no history has been appended yet.
func (m *DynamicManager) RunOnce() (int, error) {
	start := time.Now()
	rows := m.statistics()
	if len(rows) == 0 {
		return 0, errors.New("core: no history appended")
	}
	m.mu.Lock()
	m.runs++
	m.mu.Unlock()
	m.statRows.Add(uint64(len(rows)))
	if err := m.Store.Put(rows); err != nil {
		return 0, err
	}
	m.mu.Lock()
	installs := append([]*InstalledRule(nil), m.installs...)
	m.mu.Unlock()
	for _, inst := range installs {
		if err := inst.Refresh(); err != nil {
			return 0, fmt.Errorf("core: refreshing rule %q: %w", inst.Rule.Name, err)
		}
	}
	if m.Telemetry != nil {
		m.Telemetry.Histogram("core.batch.run_ns").ObserveDuration(time.Since(start))
	}
	return len(rows), nil
}

// Runs returns how many batch cycles have completed.
func (m *DynamicManager) Runs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runs
}

// Describe implements telemetry.Source.
func (m *DynamicManager) Describe() string {
	return "batch layer: dynamic-threshold manager (history partials → stats rows → rule refresh)"
}

// Collect implements telemetry.Source: it publishes the batch loop's
// counters under core.batch.*.
func (m *DynamicManager) Collect(reg *telemetry.Registry) {
	m.mu.Lock()
	runs := m.runs
	installs := len(m.installs)
	m.mu.Unlock()
	reg.Counter("core.batch.runs").Store(uint64(runs))
	reg.Counter("core.batch.history_records").Store(m.historyRecs.Load())
	reg.Counter("core.batch.stat_rows").Store(m.statRows.Load())
	reg.Gauge("core.batch.registered_rules").Set(float64(installs))
}
