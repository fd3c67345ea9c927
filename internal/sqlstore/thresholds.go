package sqlstore

import (
	"fmt"
	"strconv"
	"sync"

	"trafficcep/internal/busdata"
	"trafficcep/internal/cep"
	"trafficcep/internal/epl"
)

// StatRow is one statistics record produced by the batch layer: the mean and
// standard deviation of one attribute at one spatial location during one
// hour-of-day bucket on weekdays or weekends (§4.1.3).
type StatRow struct {
	Attribute string
	Location  string // quadtree area ID or bus stop ID
	Hour      int
	Day       busdata.DayType
	Mean      float64
	Stdv      float64
}

// Threshold is one resolved rule threshold (mean + s·stdv, Listing 2).
type Threshold struct {
	Location string
	Hour     int
	Day      busdata.DayType
	Value    float64
}

// statTable returns the per-attribute table name, mirroring the paper's
// "statistics_attribute" naming.
func statTable(attribute string) string { return "statistics_" + attribute }

// statColumns is the schema of every statistics table.
var statColumns = []string{"attr_mean", "attr_stdv", "currentHour", "dateType", "areaId1"}

// ThresholdStore is the thresholds DAO over a DB: the batch layer writes
// StatRows, the online layer reads Thresholds via the Listing 2 query, or
// their ThresholdTable.
type ThresholdStore struct {
	db *DB
	// compiled query cache per SQL text — the threshold-stream strategy issues
	// one query per refresh, but the join-with-DB strategy issues one per
	// tuple and must not re-parse or re-compile every time. Every engine
	// installed over the store shares it.
	mu         sync.Mutex
	queryCache map[string]*compiledQuery
	// tables holds the last thresholds table built per Listing 2 query
	// text, that is per (attribute, s); every engine registers that one.
	tables map[string]*thresholdTable
}

// thresholdTable is the thresholds table of one (attribute, s), built from
// the given version of the attribute's statistics table. mu is held while
// it is built, so that callers asking at once build it once.
type thresholdTable struct {
	mu      sync.Mutex
	version uint64
	table   *cep.Table
}

// NewThresholdStore creates the statistics tables for every monitorable
// attribute (Table 6) in db.
func NewThresholdStore(db *DB) (*ThresholdStore, error) {
	ts := &ThresholdStore{db: db, queryCache: make(map[string]*compiledQuery),
		tables: make(map[string]*thresholdTable)}
	for _, attr := range busdata.Attributes {
		if err := db.CreateTable(statTable(attr), statColumns); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// Put upserts statistics rows keyed by (location, hour, day), one DB write
// per attribute: each statistics table gets one new version however many
// of its rows the call writes.
func (ts *ThresholdStore) Put(rows []StatRow) error {
	var attrs []string // in order of first appearance
	byAttr := make(map[string][]Row)
	for _, r := range rows {
		if _, seen := byAttr[r.Attribute]; !seen {
			attrs = append(attrs, r.Attribute)
		}
		byAttr[r.Attribute] = append(byAttr[r.Attribute], Row{
			"attr_mean":   r.Mean,
			"attr_stdv":   r.Stdv,
			"currentHour": float64(r.Hour),
			"dateType":    r.Day.String(),
			"areaId1":     r.Location,
		})
	}
	for _, attr := range attrs {
		if err := ts.db.Upsert(statTable(attr), statKey, byAttr[attr]...); err != nil {
			return err
		}
	}
	return nil
}

// statKey are the key columns of every statistics table.
var statKey = []string{"areaId1", "currentHour", "dateType"}

// listing2SQL renders the paper's Listing 2 threshold query for an attribute
// with the sensitivity parameter s inlined.
func listing2SQL(attribute string, s float64) string {
	return fmt.Sprintf(
		`SELECT DISTINCT attr_mean + %s * attr_stdv AS thresholdLocation, currentHour, dateType, areaId1 FROM %s`,
		strconv.FormatFloat(s, 'g', -1, 64), statTable(attribute))
}

// Thresholds runs the Listing 2 query and returns every threshold for the
// attribute, with value = mean + s·stdv.
func (ts *ThresholdStore) Thresholds(attribute string, s float64) ([]Threshold, error) {
	ths, _, err := ts.thresholds(listing2SQL(attribute, s))
	return ths, err
}

// thresholds runs a Listing 2 query and returns its thresholds and the
// version of the statistics table they were read from.
func (ts *ThresholdStore) thresholds(sql string) ([]Threshold, uint64, error) {
	rows, version, err := ts.query(sql)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Threshold, 0, len(rows))
	for _, r := range rows {
		th, err := rowToThreshold(r)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, th)
	}
	return out, version, nil
}

// thresholdColumns are the columns of a thresholds table, the first three
// its key: the fields Listing 1 reads of its thresholds stream.
var thresholdColumns = []string{"location", "hour", "day", "value"}

// ThresholdTable returns the attribute's thresholds at sensitivity s as a
// table over the columns location, hour, day (its key) and value: one row
// per threshold, in the order Thresholds returns them. The table is built once per version of the
// attribute's statistics table — a Put, or any write through DB, makes the
// next call build a new one — and every caller until then gets the same
// immutable *cep.Table, which any number of engines may register.
func (ts *ThresholdStore) ThresholdTable(attribute string, s float64) (*cep.Table, error) {
	sql := listing2SQL(attribute, s)
	ts.mu.Lock()
	tt := ts.tables[sql]
	if tt == nil {
		tt = &thresholdTable{}
		ts.tables[sql] = tt
	}
	ts.mu.Unlock()

	tt.mu.Lock()
	defer tt.mu.Unlock()
	if tt.table != nil && tt.version == ts.db.version(statTable(attribute)) {
		return tt.table, nil
	}
	ths, version, err := ts.thresholds(sql)
	if err != nil {
		return nil, err
	}
	rows := make([]map[string]cep.Value, len(ths))
	for i, th := range ths {
		rows[i] = map[string]cep.Value{
			"location": th.Location,
			"hour":     float64(th.Hour),
			"day":      th.Day.String(),
			"value":    th.Value,
		}
	}
	t, err := cep.NewTable(thresholdColumns, 3, rows)
	if err != nil {
		return nil, err
	}
	tt.version, tt.table = version, t
	return t, nil
}

// Lookup resolves the threshold for one (location, hour, day), issuing a
// filtered SQL query — the per-tuple access pattern of the join-with-
// database strategy (§4.3.1).
func (ts *ThresholdStore) Lookup(attribute, location string, hour int, day busdata.DayType, s float64) (float64, bool, error) {
	sql := listing2SQL(attribute, s) +
		fmt.Sprintf(` WHERE areaId1 = '%s' AND currentHour = %d AND dateType = '%s'`, location, hour, day)
	rows, _, err := ts.query(sql)
	if err != nil {
		return 0, false, err
	}
	if len(rows) == 0 {
		return 0, false, nil
	}
	v, ok := cep.Numeric(rows[0]["thresholdLocation"])
	if !ok {
		return 0, false, fmt.Errorf("sqlstore: non-numeric threshold %v", rows[0]["thresholdLocation"])
	}
	return v, true, nil
}

// query runs sql through its cached compiled form, and returns the version
// of the table it read; safe for concurrent use.
func (ts *ThresholdStore) query(sql string) ([]Row, uint64, error) {
	cq, err := ts.cached(sql)
	if err != nil {
		return nil, 0, err
	}
	cq.mu.Lock()
	defer cq.mu.Unlock()
	return ts.db.run(cq)
}

// cached parses and compiles sql once and memoizes it; safe for concurrent
// use.
func (ts *ThresholdStore) cached(sql string) (*compiledQuery, error) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if cq, ok := ts.queryCache[sql]; ok {
		return cq, nil
	}
	q, err := epl.Parse(sql)
	if err != nil {
		return nil, err
	}
	cq, err := compileQuery(q)
	if err != nil {
		return nil, err
	}
	ts.queryCache[sql] = cq
	return cq, nil
}

func rowToThreshold(r Row) (Threshold, error) {
	v, ok := cep.Numeric(r["thresholdLocation"])
	if !ok {
		return Threshold{}, fmt.Errorf("sqlstore: non-numeric threshold %v", r["thresholdLocation"])
	}
	h, ok := cep.Numeric(r["currentHour"])
	if !ok {
		return Threshold{}, fmt.Errorf("sqlstore: non-numeric hour %v", r["currentHour"])
	}
	day := busdata.Weekday
	if r["dateType"] == busdata.Weekend.String() {
		day = busdata.Weekend
	}
	loc, _ := r["areaId1"].(string)
	return Threshold{Location: loc, Hour: int(h), Day: day, Value: v}, nil
}

// DB exposes the underlying database (for tests and the topology wiring).
func (ts *ThresholdStore) DB() *DB { return ts.db }
