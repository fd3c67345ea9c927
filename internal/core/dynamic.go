package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/dfs"
	"trafficcep/internal/mapreduce"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/telemetry"
)

// HistoryRecord is one pre-processed trace kept for the batch layer (§3.2:
// "The pre-processed data before being forwarded to the Esper engines, are
// stored to a distributed filesystem"). DynamicManager folds it into
// per-key partials; its CSV line form feeds the reference MapReduce job.
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

// MarshalLine renders the record as one history CSV line.
func (h HistoryRecord) MarshalLine() string {
	cong := "0"
	if h.Congestion {
		cong = "1"
	}
	return strings.Join([]string{
		strconv.Itoa(h.Hour),
		h.Day.String(),
		h.StopID,
		strings.Join(h.Areas, "|"),
		strconv.FormatFloat(h.Delay, 'g', -1, 64),
		strconv.FormatFloat(h.ActualDelay, 'g', -1, 64),
		strconv.FormatFloat(h.Speed, 'g', -1, 64),
		cong,
	}, ",")
}

// ParseHistoryLine parses one history CSV line.
func ParseHistoryLine(line string) (HistoryRecord, error) {
	parts := strings.Split(line, ",")
	if len(parts) != 8 {
		return HistoryRecord{}, fmt.Errorf("core: history line has %d fields, want 8", len(parts))
	}
	hour, err := strconv.Atoi(parts[0])
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad hour %q: %w", parts[0], err)
	}
	day := busdata.Weekday
	if parts[1] == busdata.Weekend.String() {
		day = busdata.Weekend
	}
	delay, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad delay %q: %w", parts[4], err)
	}
	actual, err := strconv.ParseFloat(parts[5], 64)
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad actualDelay %q: %w", parts[5], err)
	}
	speed, err := strconv.ParseFloat(parts[6], 64)
	if err != nil {
		return HistoryRecord{}, fmt.Errorf("core: bad speed %q: %w", parts[6], err)
	}
	var areas []string
	if parts[3] != "" {
		areas = strings.Split(parts[3], "|")
	}
	return HistoryRecord{
		Hour: hour, Day: day, StopID: parts[2], Areas: areas,
		Delay: delay, ActualDelay: actual, Speed: speed, Congestion: parts[7] == "1",
	}, nil
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
// Σv and Σv². statsReducer and DynamicManager both fold through add and
// finish through meanStdv, so the same values in the same order give
// bit-identical statistics on either path.
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

const statsKeySep = "\x1f"

// statsMapper emits (attribute, location, hour, day) → value for every
// monitorable attribute and every spatial granularity of the record: the
// bus stop and each quadtree area on the record's path.
func statsMapper(_ int64, line string, emit func(k, v string)) error {
	rec, err := ParseHistoryLine(line)
	if err != nil {
		return err
	}
	locations := make([]string, 0, len(rec.Areas)+1)
	if rec.StopID != "" {
		locations = append(locations, rec.StopID)
	}
	locations = append(locations, rec.Areas...)
	values := rec.values()
	for i, attr := range busdata.Attributes {
		v := strconv.FormatFloat(values[i], 'g', -1, 64)
		for _, loc := range locations {
			key := strings.Join([]string{attr, loc, strconv.Itoa(rec.Hour), rec.Day.String()}, statsKeySep)
			emit(key, v)
		}
	}
	return nil
}

// statsReducer computes mean and sample standard deviation per key.
func statsReducer(key string, values []string, emit func(k, v string)) error {
	if len(values) == 0 {
		return nil
	}
	var m moments
	for _, s := range values {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("core: bad stat value %q for key %q: %w", s, key, err)
		}
		m.add(v)
	}
	mean, stdv := m.meanStdv(len(values))
	emit(key, fmt.Sprintf("%g,%g,%d", mean, stdv, len(values)))
	return nil
}

// StatsJobConfig configures one statistics batch run.
type StatsJobConfig struct {
	FS          *dfs.FS
	InputPaths  []string
	OutputPath  string // defaults to "batch/stats"
	NumReducers int    // defaults to 4
	// Telemetry receives the job's phase timings (may be nil).
	Telemetry *telemetry.Registry
}

// RunStatsJob executes the Hadoop-style statistics job over historical data
// and returns the per-(attribute, location, hour, day) statistics. It is the
// reference implementation DynamicManager's in-stream partials are checked
// against: over the same records in the same order both give bit-identical
// rows.
func RunStatsJob(cfg StatsJobConfig) ([]sqlstore.StatRow, *mapreduce.Result, error) {
	if cfg.OutputPath == "" {
		cfg.OutputPath = "batch/stats"
	}
	if cfg.NumReducers <= 0 {
		cfg.NumReducers = 4
	}
	res, err := mapreduce.Run(mapreduce.Config{
		Name:        "traffic-statistics",
		FS:          cfg.FS,
		InputPaths:  cfg.InputPaths,
		OutputPath:  cfg.OutputPath,
		Mapper:      statsMapper,
		Reducer:     statsReducer,
		NumReducers: cfg.NumReducers,
		Telemetry:   cfg.Telemetry,
	})
	if err != nil {
		return nil, nil, err
	}
	kvs, err := mapreduce.ReadOutput(cfg.FS, cfg.OutputPath)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]sqlstore.StatRow, 0, len(kvs))
	for _, kv := range kvs {
		row, err := parseStatKV(kv)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}
	return rows, res, nil
}

func parseStatKV(kv mapreduce.KeyValue) (sqlstore.StatRow, error) {
	kparts := strings.Split(kv.Key, statsKeySep)
	if len(kparts) != 4 {
		return sqlstore.StatRow{}, fmt.Errorf("core: malformed stats key %q", kv.Key)
	}
	hour, err := strconv.Atoi(kparts[2])
	if err != nil {
		return sqlstore.StatRow{}, fmt.Errorf("core: bad hour in stats key %q: %w", kv.Key, err)
	}
	day := busdata.Weekday
	if kparts[3] == busdata.Weekend.String() {
		day = busdata.Weekend
	}
	vparts := strings.Split(kv.Value, ",")
	if len(vparts) != 3 {
		return sqlstore.StatRow{}, fmt.Errorf("core: malformed stats value %q", kv.Value)
	}
	mean, err := strconv.ParseFloat(vparts[0], 64)
	if err != nil {
		return sqlstore.StatRow{}, fmt.Errorf("core: bad mean %q: %w", vparts[0], err)
	}
	stdv, err := strconv.ParseFloat(vparts[1], 64)
	if err != nil {
		return sqlstore.StatRow{}, fmt.Errorf("core: bad stdv %q: %w", vparts[1], err)
	}
	return sqlstore.StatRow{
		Attribute: kparts[0], Location: kparts[1],
		Hour: hour, Day: day, Mean: mean, Stdv: stdv,
	}, nil
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
// time. RunStatsJob computes the same rows from history lines with
// MapReduce and is the reference the partials are tested against.
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
// covers: its bus stop, when it has one, and each quadtree area on its path
// (the locations statsMapper emits for it). It always returns nil.
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
