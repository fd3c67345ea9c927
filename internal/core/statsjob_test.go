package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"trafficcep/internal/busdata"
	"trafficcep/internal/dfs"
	"trafficcep/internal/mapreduce"
	"trafficcep/internal/sqlstore"
	"trafficcep/internal/telemetry"
)

// This file holds the batch layer the paper runs (§4.1.3): a Hadoop-style
// MapReduce job over history lines on the distributed filesystem. The
// product computes the same statistics in-stream (DynamicManager's
// partials); the job is the reference those partials are tested against,
// and BenchmarkMapReduceStatsJob prices it.

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
// reference DynamicManager's in-stream partials are checked against: over
// the same records in the same order both give bit-identical rows.
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

func BenchmarkMapReduceStatsJob(b *testing.B) {
	fs := dfs.New(dfs.Options{ChunkSize: 8 * 1024})
	for i := 0; i < 2000; i++ {
		rec := HistoryRecord{
			Hour: i % 24, Day: busdata.Weekday,
			StopID: fmt.Sprintf("s%02d", i%20),
			Areas:  []string{"0", fmt.Sprintf("0.%d", i%4)},
			Delay:  float64(i % 300), Speed: float64(i % 50),
		}
		if err := fs.AppendLine("history/bench", rec.MarshalLine()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := RunStatsJob(StatsJobConfig{
			FS: fs, InputPaths: []string{"history/bench"},
			OutputPath: fmt.Sprintf("out/bench%d", i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
