package sqlstore

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficcep/internal/busdata"
)

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("stats", []string{"mean", "stdv", "hour", "area"}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", nil); err == nil {
		t.Error("empty columns must fail")
	}
	if err := db.CreateTable("t", []string{"a", "a"}); err == nil {
		t.Error("duplicate columns must fail")
	}
	if err := db.CreateTable("t", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", []string{"a"}); err == nil {
		t.Error("duplicate table must fail")
	}
}

func TestInsertUnknownColumn(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("stats", Row{"nope": 1}); err == nil {
		t.Error("unknown column must fail")
	}
	if err := db.Insert("missing", Row{"a": 1}); err == nil {
		t.Error("missing table must fail")
	}
}

func TestInsertAndQueryAll(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 3; i++ {
		if err := db.Insert("stats", Row{"mean": float64(i), "stdv": 1.0, "hour": float64(i), "area": "a"}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT * FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if db.Count("stats") != 3 {
		t.Fatalf("count = %d", db.Count("stats"))
	}
}

func TestQueryProjectionArithmetic(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("stats", Row{"mean": 10.0, "stdv": 2.0, "hour": 8.0, "area": "x"}); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT mean + 2 * stdv AS threshold, area FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["threshold"] != 14.0 || rows[0]["area"] != "x" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryWhere(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 10; i++ {
		if err := db.Insert("stats", Row{"mean": float64(i), "stdv": 0.0, "hour": float64(i % 3), "area": "a"}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT mean FROM stats WHERE hour = 1 AND mean > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // mean 4 and 7 have hour 1
		t.Fatalf("rows = %v", rows)
	}
}

func TestQueryDistinct(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 6; i++ {
		if err := db.Insert("stats", Row{"mean": float64(i % 2), "stdv": 0.0, "hour": 0.0, "area": "a"}); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT DISTINCT mean FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Row{{"mean": 0.0}, {"mean": 1.0}}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("distinct rows = %v, want %v", rows, want)
	}

	// Over several columns, with a star among them: a row is dropped when
	// an earlier one has equal values in every output column, numerically
	// equal values of different Go types included; the first stays, in
	// insertion order.
	db = newTestDB(t)
	for i, r := range []Row{
		{"mean": 0.0, "area": "a"},
		{"mean": 1.0, "area": "a"},
		{"mean": 0, "area": "a"},
		{"mean": 1.0, "area": "b"},
		{"mean": 0.0, "area": "b", "hour": 3.0},
		{"mean": int64(1), "area": "b"},
	} {
		r["stdv"] = float64(i % 2)
		if err := db.Insert("stats", r); err != nil {
			t.Fatal(err)
		}
	}
	rows, err = db.Query(`SELECT DISTINCT area, *, mean * 2 AS twice FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	want := []Row{
		{"area": "a", "mean": 0.0, "stdv": 0.0, "hour": nil, "twice": 0.0},
		{"area": "a", "mean": 1.0, "stdv": 1.0, "hour": nil, "twice": 2.0},
		{"area": "b", "mean": 1.0, "stdv": 1.0, "hour": nil, "twice": 2.0},
		{"area": "b", "mean": 0.0, "stdv": 0.0, "hour": 3.0, "twice": 0.0},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("distinct rows =\n%v\nwant\n%v", rows, want)
	}
}

// TestQueryOrderBy checks the row order contract: ORDER BY is not part of
// the dialect and is rejected, and rows come back in insertion order.
func TestQueryOrderBy(t *testing.T) {
	db := newTestDB(t)
	for _, m := range []float64{3, 1, 2} {
		if err := db.Insert("stats", Row{"mean": m, "stdv": 0.0, "hour": 0.0, "area": "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(`SELECT mean FROM stats ORDER BY mean DESC`); err == nil || !strings.Contains(err.Error(), "ORDER") {
		t.Fatalf("ORDER BY query error = %v, want one naming ORDER", err)
	}
	rows, err := db.Query(`SELECT mean FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	got := []float64{rows[0]["mean"].(float64), rows[1]["mean"].(float64), rows[2]["mean"].(float64)}
	if got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order = %v, want insertion order [3 1 2]", got)
	}
}

func TestQueryRejectsUnsupported(t *testing.T) {
	db := newTestDB(t)
	cases := []string{
		`SELECT avg(mean) FROM stats`,
		`SELECT * FROM stats GROUP BY area`,
		`SELECT * FROM stats HAVING mean > 1`,
		`SELECT * FROM stats.win:keepall()`,
		`SELECT * FROM stats, stats2`,
		`SELECT * FROM nosuchtable`,
	}
	for _, sql := range cases {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestUpsertReplacesByKey(t *testing.T) {
	db := newTestDB(t)
	put := func(area string, hour, mean float64) {
		t.Helper()
		if err := db.Upsert("stats", []string{"area", "hour"}, Row{"mean": mean, "stdv": 0.0, "hour": hour, "area": area}); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 8, 1)
	put("a", 9, 2)
	put("a", 8, 10) // replaces first
	if db.Count("stats") != 2 {
		t.Fatalf("count = %d, want 2", db.Count("stats"))
	}
	rows, err := db.Query(`SELECT mean FROM stats WHERE area = 'a' AND hour = 8`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0]["mean"] != 10.0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestUpsertBadKey(t *testing.T) {
	db := newTestDB(t)
	if err := db.Upsert("stats", []string{"nope"}, Row{"mean": 1.0}); err == nil {
		t.Error("bad key column must fail")
	}
	if err := db.Upsert("missing", []string{"area"}, Row{}); err == nil {
		t.Error("missing table must fail")
	}
}

func TestInsertIsolation(t *testing.T) {
	// Mutating the caller's map after Insert must not affect the table.
	db := newTestDB(t)
	row := Row{"mean": 1.0, "stdv": 0.0, "hour": 0.0, "area": "a"}
	if err := db.Insert("stats", row); err != nil {
		t.Fatal(err)
	}
	row["mean"] = 999.0
	rows, err := db.Query(`SELECT mean FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0]["mean"] != 1.0 {
		t.Fatalf("stored row was mutated: %v", rows[0])
	}
}

func TestDropTable(t *testing.T) {
	db := newTestDB(t)
	if !db.DropTable("stats") {
		t.Fatal("drop failed")
	}
	if db.DropTable("stats") {
		t.Fatal("second drop should return false")
	}
	if len(db.TableNames()) != 0 {
		t.Fatal("tables remain")
	}
}

func TestConcurrentInsertQuery(t *testing.T) {
	db := newTestDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = db.Insert("stats", Row{"mean": float64(i), "stdv": 0.0, "hour": float64(g), "area": "a"})
				_, _ = db.Query(`SELECT * FROM stats WHERE hour = 2`)
			}
		}(g)
	}
	wg.Wait()
	if db.Count("stats") != 200 {
		t.Fatalf("count = %d, want 200", db.Count("stats"))
	}
	if db.QueriesServed() != 200 {
		t.Fatalf("queries = %d, want 200", db.QueriesServed())
	}
}

func TestThresholdStoreListing2(t *testing.T) {
	db := NewDB()
	ts, err := NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	err = ts.Put([]StatRow{
		{Attribute: busdata.AttrDelay, Location: "area1", Hour: 8, Day: busdata.Weekday, Mean: 100, Stdv: 20},
		{Attribute: busdata.AttrDelay, Location: "area2", Hour: 8, Day: busdata.Weekday, Mean: 50, Stdv: 5},
		{Attribute: busdata.AttrSpeed, Location: "area1", Hour: 8, Day: busdata.Weekday, Mean: 30, Stdv: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	ths, err := ts.Thresholds(busdata.AttrDelay, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) != 2 {
		t.Fatalf("thresholds = %d, want 2 (speed rows must not leak)", len(ths))
	}
	byLoc := map[string]Threshold{}
	for _, th := range ths {
		byLoc[th.Location] = th
	}
	if byLoc["area1"].Value != 120 { // 100 + 1*20
		t.Fatalf("area1 = %+v, want value 120", byLoc["area1"])
	}
	if byLoc["area2"].Value != 55 {
		t.Fatalf("area2 = %+v, want value 55", byLoc["area2"])
	}
	if byLoc["area1"].Hour != 8 || byLoc["area1"].Day != busdata.Weekday {
		t.Fatalf("area1 metadata = %+v", byLoc["area1"])
	}
}

func TestThresholdStoreSensitivityParameter(t *testing.T) {
	db := NewDB()
	ts, err := NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Put([]StatRow{{Attribute: busdata.AttrDelay, Location: "a", Hour: 8, Day: busdata.Weekday, Mean: 10, Stdv: 4}}); err != nil {
		t.Fatal(err)
	}
	for s, want := range map[float64]float64{0: 10, 1: 14, 2.5: 20} {
		ths, err := ts.Thresholds(busdata.AttrDelay, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(ths) != 1 || ths[0].Value != want {
			t.Fatalf("s=%v: got %v, want value %v", s, ths, want)
		}
	}
}

func TestThresholdStoreLookup(t *testing.T) {
	db := NewDB()
	ts, err := NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	err = ts.Put([]StatRow{
		{Attribute: busdata.AttrDelay, Location: "a", Hour: 8, Day: busdata.Weekday, Mean: 10, Stdv: 2},
		{Attribute: busdata.AttrDelay, Location: "a", Hour: 8, Day: busdata.Weekend, Mean: 5, Stdv: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := ts.Lookup(busdata.AttrDelay, "a", 8, busdata.Weekday, 1)
	if err != nil || !ok || v != 12 {
		t.Fatalf("lookup = %v,%v,%v; want 12,true,nil", v, ok, err)
	}
	v, ok, err = ts.Lookup(busdata.AttrDelay, "a", 8, busdata.Weekend, 1)
	if err != nil || !ok || v != 6 {
		t.Fatalf("weekend lookup = %v,%v,%v; want 6,true,nil", v, ok, err)
	}
	_, ok, err = ts.Lookup(busdata.AttrDelay, "nowhere", 8, busdata.Weekday, 1)
	if err != nil || ok {
		t.Fatalf("missing lookup: ok=%v err=%v, want false,nil", ok, err)
	}
}

func TestThresholdStorePutRefreshes(t *testing.T) {
	// The batch layer re-runs hourly; re-putting the same key must update,
	// not duplicate (the dynamic-rules loop of §4.1.3).
	db := NewDB()
	ts, err := NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	row := StatRow{Attribute: busdata.AttrDelay, Location: "a", Hour: 8, Day: busdata.Weekday, Mean: 10, Stdv: 2}
	if err := ts.Put([]StatRow{row}); err != nil {
		t.Fatal(err)
	}
	row.Mean = 20
	if err := ts.Put([]StatRow{row}); err != nil {
		t.Fatal(err)
	}
	ths, err := ts.Thresholds(busdata.AttrDelay, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ths) != 1 || ths[0].Value != 20 {
		t.Fatalf("thresholds = %v, want single refreshed row of 20", ths)
	}
}

// TestThresholdStoreConcurrentLookups runs Lookup and Thresholds from
// several goroutines on one store, as every engine installed over it does:
// the compiled queries it caches are shared, so their scans must not
// interleave (run under -race).
func TestThresholdStoreConcurrentLookups(t *testing.T) {
	db := NewDB()
	ts, err := NewThresholdStore(db)
	if err != nil {
		t.Fatal(err)
	}
	var rows []StatRow
	for i := 0; i < 20; i++ {
		rows = append(rows, StatRow{
			Attribute: busdata.AttrDelay, Location: fmt.Sprintf("a%d", i),
			Hour: i % 24, Day: busdata.Weekday, Mean: float64(i), Stdv: 1,
		})
	}
	if err := ts.Put(rows); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				loc := fmt.Sprintf("a%d", i%20)
				v, ok, err := ts.Lookup(busdata.AttrDelay, loc, i%20, busdata.Weekday, 1)
				if err == nil && (!ok || v != float64(i%20)+1) {
					err = fmt.Errorf("lookup %s = %v, %v; want %v", loc, v, ok, float64(i%20)+1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ths, err := ts.Thresholds(busdata.AttrDelay, 1)
				if err == nil && len(ths) != 20 {
					err = fmt.Errorf("%d thresholds, want 20", len(ths))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestThresholdStoreLookupAllocations: a repeated Lookup runs the query it
// compiled on first use, and a row it scans allocates nothing, so the
// allocations of a Lookup do not grow with the table. Skipped under -race,
// where sync.Pool (behind fmt) drops items at random.
func TestThresholdStoreLookupAllocations(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops items at random under -race")
	}
	allocs := func(locations int) float64 {
		ts, err := NewThresholdStore(NewDB())
		if err != nil {
			t.Fatal(err)
		}
		var rows []StatRow
		for loc := 0; loc < locations; loc++ {
			for h := 0; h < 24; h++ {
				rows = append(rows, StatRow{
					Attribute: busdata.AttrDelay, Location: fmt.Sprintf("a%02d", loc),
					Hour: h, Day: busdata.Weekday, Mean: float64(h), Stdv: 1,
				})
			}
		}
		if err := ts.Put(rows); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, ok, err := ts.Lookup(busdata.AttrDelay, "a00", 8, busdata.Weekday, 2); err != nil || !ok {
				t.Fatal(ok, err)
			}
		})
	}
	if small, large := allocs(1), allocs(40); large != small {
		t.Fatalf("Lookup allocates %v times over 24 rows but %v over 960", small, large)
	}
}

func TestListing2SQLShape(t *testing.T) {
	sql := listing2SQL(busdata.AttrDelay, 2)
	for _, frag := range []string{"SELECT DISTINCT", "attr_mean + 2 * attr_stdv", "statistics_delay"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("listing2 SQL %q missing %q", sql, frag)
		}
	}
}

func TestUpsertIndexRebuildOnKeyChange(t *testing.T) {
	db := newTestDB(t)
	put := func(keys []string, area string, hour, mean float64) {
		t.Helper()
		if err := db.Upsert("stats", keys, Row{"mean": mean, "stdv": 0.0, "hour": hour, "area": area}); err != nil {
			t.Fatal(err)
		}
	}
	// First index on (area, hour).
	put([]string{"area", "hour"}, "a", 1, 10)
	put([]string{"area", "hour"}, "a", 2, 20)
	// Switch to keying on area only: both existing "a" rows collide under
	// the new key; the upsert must replace one deterministic row, not
	// append blindly.
	put([]string{"area"}, "a", 3, 30)
	if db.Count("stats") != 2 {
		t.Fatalf("count = %d, want 2 after key change", db.Count("stats"))
	}
	// And back to the composite key.
	put([]string{"area", "hour"}, "a", 2, 99)
	rows, err := db.Query(`SELECT mean FROM stats WHERE hour = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 1 && rows[0]["mean"] != 99.0 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestUpsertAfterPlainInserts(t *testing.T) {
	// Inserts before any Upsert must still be visible to the index the
	// first Upsert builds.
	db := newTestDB(t)
	if err := db.Insert("stats", Row{"mean": 1.0, "stdv": 0.0, "hour": 5.0, "area": "x"}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert("stats", []string{"area", "hour"}, Row{"mean": 2.0, "stdv": 0.0, "hour": 5.0, "area": "x"}); err != nil {
		t.Fatal(err)
	}
	if db.Count("stats") != 1 {
		t.Fatalf("count = %d, want 1 (upsert must find the inserted row)", db.Count("stats"))
	}
	rows, err := db.Query(`SELECT mean FROM stats`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0]["mean"] != 2.0 {
		t.Fatalf("mean = %v", rows[0]["mean"])
	}
}

func TestUpsertManyRowsFast(t *testing.T) {
	// The O(1) index must make 20k upserts comfortably fast (the batch
	// layer refreshes thousands of statistics rows every run).
	db := newTestDB(t)
	start := time.Now()
	for i := 0; i < 20000; i++ {
		err := db.Upsert("stats", []string{"area", "hour"}, Row{
			"mean": float64(i), "stdv": 1.0,
			"hour": float64(i % 24), "area": fmt.Sprintf("a%04d", i%2000),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if db.Count("stats") != 2000*24 {
		// 2000 areas × 24 hours, but only 20000 combinations inserted.
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("20k upserts took %v", elapsed)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
