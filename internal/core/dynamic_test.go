package core

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/dfs"
	"trafficcep/internal/geo"
	"trafficcep/internal/quadtree"
	"trafficcep/internal/sqlstore"
)

func TestHistoryLineRoundTrip(t *testing.T) {
	rec := HistoryRecord{
		Hour: 8, Day: busdata.Weekend, StopID: "stop0007",
		Areas: []string{"0", "0.1", "0.1.2"},
		Delay: 120.5, ActualDelay: -3.25, Speed: 17, Congestion: true,
	}
	back, err := ParseHistoryLine(rec.MarshalLine())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hour != 8 || back.Day != busdata.Weekend || back.StopID != "stop0007" {
		t.Fatalf("back = %+v", back)
	}
	if len(back.Areas) != 3 || back.Areas[2] != "0.1.2" {
		t.Fatalf("areas = %v", back.Areas)
	}
	if back.Delay != 120.5 || back.ActualDelay != -3.25 || back.Speed != 17 || !back.Congestion {
		t.Fatalf("values = %+v", back)
	}
}

func TestHistoryLineNoAreas(t *testing.T) {
	rec := HistoryRecord{Hour: 1, StopID: "s", Delay: 1}
	back, err := ParseHistoryLine(rec.MarshalLine())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Areas) != 0 {
		t.Fatalf("areas = %v", back.Areas)
	}
}

func TestParseHistoryLineErrors(t *testing.T) {
	bad := []string{
		"too,few,fields",
		"x,weekday,s,0,1,2,3,0",      // bad hour
		"1,weekday,s,0,notnum,2,3,0", // bad delay
		"1,weekday,s,0,1,notnum,3,0", // bad actual
		"1,weekday,s,0,1,2,notnum,0", // bad speed
	}
	for _, line := range bad {
		if _, err := ParseHistoryLine(line); err == nil {
			t.Errorf("line %q should fail", line)
		}
	}
}

func TestStatsJobComputesMeanAndStdv(t *testing.T) {
	fs := dfs.New(dfs.Options{ChunkSize: 256})
	// Six records at stop "s1" in area "0.1" at hour 8, delays 10..60.
	for i := 1; i <= 6; i++ {
		rec := HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "s1",
			Areas: []string{"0", "0.1"},
			Delay: float64(i * 10), Speed: 20, ActualDelay: 0,
		}
		if err := fs.AppendLine("history/day1", rec.MarshalLine()); err != nil {
			t.Fatal(err)
		}
	}
	rows, res, err := RunStatsJob(StatsJobConfig{FS: fs, InputPaths: []string{"history/day1"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.InputRecords != 6 {
		t.Fatalf("records = %d", res.Counters.InputRecords)
	}
	// Expect stats for 4 attributes × 3 locations (s1, 0, 0.1).
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	var found bool
	for _, r := range rows {
		if r.Attribute == busdata.AttrDelay && r.Location == "s1" {
			found = true
			if math.Abs(r.Mean-35) > 1e-9 {
				t.Fatalf("mean = %v, want 35", r.Mean)
			}
			// Sample stddev of 10..60 step 10 is ~18.708.
			if math.Abs(r.Stdv-18.708) > 0.01 {
				t.Fatalf("stdv = %v, want ~18.708", r.Stdv)
			}
			if r.Hour != 8 || r.Day != busdata.Weekday {
				t.Fatalf("key = %+v", r)
			}
		}
	}
	if !found {
		t.Fatal("missing delay@s1 stats")
	}
}

func TestStatsJobSeparatesHourAndDay(t *testing.T) {
	fs := dfs.New(dfs.Options{})
	put := func(hour int, day busdata.DayType, delay float64) {
		rec := HistoryRecord{Hour: hour, Day: day, StopID: "s", Delay: delay}
		if err := fs.AppendLine("history/h", rec.MarshalLine()); err != nil {
			t.Fatal(err)
		}
	}
	put(8, busdata.Weekday, 100)
	put(8, busdata.Weekend, 10)
	put(9, busdata.Weekday, 50)
	rows, _, err := RunStatsJob(StatsJobConfig{FS: fs, InputPaths: fs.List("history/")})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range rows {
		if r.Attribute == busdata.AttrDelay {
			got[r.Day.String()+"-"+strconv.Itoa(r.Hour)] = r.Mean
		}
	}
	if got["weekday-8"] != 100 || got["weekend-8"] != 10 || got["weekday-9"] != 50 {
		t.Fatalf("stats = %v", got)
	}
}

func TestDynamicManagerEndToEnd(t *testing.T) {
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m := &DynamicManager{Store: store}

	// Write a history where area "A" sees delays around 100 at hour 8.
	for i := 0; i < 20; i++ {
		err := m.AppendHistory(HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "sA",
			Areas: []string{"A"}, Delay: 100 + float64(i%5),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// An engine with a rule on layer-0 areas, stream strategy. Install
	// needs thresholds to exist, so run the batch once before wiring.
	if n, err := m.RunOnce(); err != nil || n == 0 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	eng := cep.New()
	rule := Rule{Name: "dyn", Attribute: busdata.AttrDelay, Kind: QuadtreeLayer, Layer: 0, Window: 1, Sensitivity: 1}
	inst, err := InstallRule(eng, rule, InstallOptions{Strategy: StrategyStream, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	m.Register(inst)
	fired := countFirings(inst)

	send := func(delay float64) {
		err := eng.SendEvent(BusStream, map[string]cep.Value{
			"layer0Area": "A", "hour": 8.0, "day": busdata.Weekday.String(), "delay": delay,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	send(90) // below mean+stdv (~102+)
	if *fired != 0 {
		t.Fatal("fired below dynamic threshold")
	}
	send(150)
	if *fired == 0 {
		t.Fatal("did not fire above dynamic threshold")
	}

	// Conditions change: delays around 300 become normal. After the next
	// batch run, 150 must no longer fire.
	for i := 0; i < 200; i++ {
		err := m.AppendHistory(HistoryRecord{
			Hour: 8, Day: busdata.Weekday, StopID: "sA",
			Areas: []string{"A"}, Delay: 300 + float64(i%9),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if m.Runs() != 2 {
		t.Fatalf("runs = %d", m.Runs())
	}
	*fired = 0
	send(150)
	if *fired != 0 {
		t.Fatal("threshold did not adapt upward")
	}
	send(400)
	if *fired == 0 {
		t.Fatal("rule dead after adaptation")
	}
}

// TestDifferentialStreamedStatistics holds the manager's in-stream partials
// to the MapReduce statistics job over the same history: a generated feed
// enriched the way trafficd bootstraps it (Preprocessor, then the quadtree
// path), windows at every hour of a weekday and a weekend day, run through
// many map tasks in parallel. Both paths see each key's values in record
// order and share one formula, so the rows must be equal exactly.
func TestDifferentialStreamedStatistics(t *testing.T) {
	cfg := busdata.DefaultConfig()
	cfg.Buses, cfg.Lines = 36, 8
	gen, err := busdata.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Twelve reports per bus at every hour of a Friday and a Saturday. The
	// generator is out of service from 03:00 to 06:00, so those hours take
	// the reports of three hours later, relabelled.
	var traces []busdata.Trace
	for _, day := range []time.Time{
		time.Date(2013, 1, 4, 0, 0, 0, 0, time.UTC),
		time.Date(2013, 1, 5, 0, 0, 0, 0, time.UTC),
	} {
		for h := 0; h < 24; h++ {
			for k := 0; k < 12; k++ {
				ts := day.Add(time.Duration(h)*time.Hour + time.Duration(k)*cfg.ReportPeriod)
				src := ts
				if !gen.InService(src) {
					src = src.Add(3 * time.Hour)
				}
				for _, tr := range gen.Tick(src) {
					tr.Timestamp = ts
					traces = append(traces, tr)
				}
			}
		}
	}
	if len(traces) < 20000 {
		t.Fatalf("feed has %d traces, want ≥ 20000", len(traces))
	}
	var seeds []geo.Point
	for i := 0; i < len(traces); i += len(traces)/512 + 1 {
		seeds = append(seeds, traces[i].Pos)
	}
	tree, err := quadtree.Build(geo.Dublin, seeds, quadtree.Options{MaxPoints: 8, MaxDepth: 8})
	if err != nil {
		t.Fatal(err)
	}

	m := &DynamicManager{}
	fs := dfs.New(dfs.Options{ChunkSize: 64 * 1024})
	pre := busdata.NewPreprocessor()
	for _, tr := range traces {
		e := pre.Process(tr)
		path := tree.Path(tr.Pos)
		areas := make([]string, len(path))
		for i, n := range path {
			areas[i] = string(n.ID)
		}
		rec := HistoryRecord{
			Hour: tr.Hour(), Day: busdata.DayTypeOf(tr.Timestamp),
			StopID: tr.BusStop, Areas: areas,
			Delay: tr.Delay, ActualDelay: e.ActualDelay, Speed: e.SpeedKmh,
			Congestion: tr.Congestion,
		}
		if err := m.AppendHistory(rec); err != nil {
			t.Fatal(err)
		}
		if err := fs.AppendLine("history/traces", rec.MarshalLine()); err != nil {
			t.Fatal(err)
		}
	}
	chunks, err := fs.Chunks("history/traces")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 16 {
		t.Fatalf("history has %d chunks, want ≥ 16 map tasks", len(chunks))
	}

	// The job runs GOMAXPROCS map tasks at once; four, so tasks finish out
	// of order even on a small host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	want, res, err := RunStatsJob(StatsJobConfig{
		FS: fs, InputPaths: []string{"history/traces"}, NumReducers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.MapTasks != len(chunks) {
		t.Fatalf("map tasks = %d, want %d", res.Counters.MapTasks, len(chunks))
	}
	type key struct {
		attr, loc string
		hour      int
		day       busdata.DayType
	}
	oracle := make(map[key]sqlstore.StatRow, len(want))
	for _, r := range want {
		oracle[key{r.Attribute, r.Location, r.Hour, r.Day}] = r
	}

	got := m.statistics()
	if len(got) != len(oracle) {
		t.Fatalf("streamed %d rows, the job %d", len(got), len(oracle))
	}
	hours := map[int]bool{}
	days := map[busdata.DayType]bool{}
	for _, r := range got {
		o, ok := oracle[key{r.Attribute, r.Location, r.Hour, r.Day}]
		if !ok {
			t.Fatalf("streamed row %+v has no job row", r)
		}
		if r.Mean != o.Mean || r.Stdv != o.Stdv {
			t.Fatalf("streamed %+v, job %+v", r, o)
		}
		hours[r.Hour] = true
		days[r.Day] = true
	}
	if len(hours) != 24 || len(days) != 2 {
		t.Fatalf("rows cover %d hours and %d day types, want 24 and 2", len(hours), len(days))
	}
	if !slices.IsSortedFunc(got, compareStatRows) {
		t.Fatal("streamed rows are not sorted by (attribute, location, hour, day)")
	}
}

func TestDynamicManagerNoHistory(t *testing.T) {
	db := sqlstore.NewDB()
	store, err := sqlstore.NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	m := &DynamicManager{Store: store}
	if _, err := m.RunOnce(); err == nil {
		t.Fatal("expected error with no history")
	}
	if m.Runs() != 0 {
		t.Fatalf("runs = %d after a refused batch", m.Runs())
	}
}
