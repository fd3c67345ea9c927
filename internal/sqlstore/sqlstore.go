// Package sqlstore is the system's storage medium: an embedded, concurrency-
// safe table store with a small SQL SELECT evaluator. It stands in for the
// MySQL server of the paper's architecture (§3.2) — the batch layer writes
// per-location statistics into it and the Esper engines read thresholds back
// out with the Listing 2 query.
package sqlstore

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"trafficcep/internal/cep"
	"trafficcep/internal/epl"
	"trafficcep/internal/telemetry"
)

// Row is one table row: column name → value.
type Row = map[string]any

// Table is a named collection of rows with a fixed column set.
type Table struct {
	Name    string
	Columns []string
	colSet  map[string]bool
	rows    []Row

	// Upsert maintains a hash index over the key columns of the first
	// Upsert call (rebuilt if a later call uses different keys), so
	// batch refreshes from the batch layer stay O(1) per row.
	indexCols []string
	index     map[string]int

	// version is the DB's write sequence number at the table's creation or
	// last write (DB.version).
	version uint64
}

// DB is an embedded multi-table store. All methods are safe for concurrent
// use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table

	queries uint64 // SELECTs served, for the retrieval-strategy experiments
	writes  uint64 // table creations and row writes so far, stamping versions

	// Telemetry (optional): SELECT latency histogram + served counter.
	queryHist *telemetry.Histogram
	queryCnt  *telemetry.Counter
}

// SetTelemetry attaches a registry: every SELECT records its latency into
// sqlstore.query_latency_ns and bumps sqlstore.queries. Call during setup,
// before serving queries.
func (db *DB) SetTelemetry(reg *telemetry.Registry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.queryHist = reg.Histogram("sqlstore.query_latency_ns")
	db.queryCnt = reg.Counter("sqlstore.queries")
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable registers a table. Creating an existing table fails.
func (db *DB) CreateTable(name string, columns []string) error {
	if len(columns) == 0 {
		return fmt.Errorf("sqlstore: table %q needs at least one column", name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("sqlstore: table %q already exists", name)
	}
	t := &Table{Name: name, Columns: append([]string(nil), columns...), colSet: make(map[string]bool)}
	for _, c := range columns {
		if t.colSet[c] {
			return fmt.Errorf("sqlstore: duplicate column %q in table %q", c, name)
		}
		t.colSet[c] = true
	}
	db.tables[name] = t
	db.wrote(t)
	return nil
}

// wrote stamps t with the next write sequence number, its version. Called
// with the DB lock held.
func (db *DB) wrote(t *Table) {
	db.writes++
	t.version = db.writes
}

// version returns the table's version: a number that changes with every
// row the table is written, and that no other table, nor a table dropped
// and created again under the name, ever had. A missing table reads 0.
func (db *DB) version(table string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[table]; ok {
		return t.version
	}
	return 0
}

// DropTable removes a table; dropping a missing table is a no-op returning
// false.
func (db *DB) DropTable(name string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.tables[name]
	delete(db.tables, name)
	return ok
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Insert appends a row. Unknown columns are rejected; missing columns read
// as nil.
func (db *DB) Insert(table string, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("sqlstore: no table %q", table)
	}
	if err := t.checkColumns(row); err != nil {
		return err
	}
	if t.index != nil {
		t.index[t.keyOf(row)] = len(t.rows)
	}
	t.rows = append(t.rows, cloneRow(row))
	db.wrote(t)
	return nil
}

// Upsert replaces the row whose key columns match, or inserts a new row.
// Used by the batch layer to refresh statistics without unbounded growth.
func (db *DB) Upsert(table string, keyCols []string, row Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("sqlstore: no table %q", table)
	}
	if err := t.checkColumns(row); err != nil {
		return err
	}
	for _, k := range keyCols {
		if !t.colSet[k] {
			return fmt.Errorf("sqlstore: key column %q not in table %q", k, table)
		}
	}
	if !sameCols(t.indexCols, keyCols) {
		t.rebuildIndex(keyCols)
	}
	db.wrote(t)
	key := t.keyOf(row)
	if i, ok := t.index[key]; ok {
		t.rows[i] = cloneRow(row)
		return nil
	}
	t.index[key] = len(t.rows)
	t.rows = append(t.rows, cloneRow(row))
	return nil
}

func sameCols(a, b []string) bool {
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

// keyOf renders the index key of a row over the table's index columns.
func (t *Table) keyOf(row Row) string {
	vals := make([]any, len(t.indexCols))
	for i, k := range t.indexCols {
		vals[i] = row[k]
	}
	return string(cep.AppendKey(nil, vals...))
}

// rebuildIndex re-keys every row on the new key columns. Called with the
// DB lock held.
func (t *Table) rebuildIndex(keyCols []string) {
	t.indexCols = append([]string(nil), keyCols...)
	t.index = make(map[string]int, len(t.rows))
	for i, r := range t.rows {
		t.index[t.keyOf(r)] = i
	}
}

func (t *Table) checkColumns(row Row) error {
	for c := range row {
		if !t.colSet[c] {
			return fmt.Errorf("sqlstore: unknown column %q in table %q", c, t.Name)
		}
	}
	return nil
}

func cloneRow(r Row) Row {
	c := make(Row, len(r))
	for k, v := range r {
		c[k] = v
	}
	return c
}

// Count returns a table's row count (0 for missing tables).
func (db *DB) Count(table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t, ok := db.tables[table]; ok {
		return len(t.rows)
	}
	return 0
}

// QueriesServed returns the number of SELECTs evaluated so far.
func (db *DB) QueriesServed() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.queries
}

// Query parses and evaluates a SELECT statement. The supported dialect is
// the Listing 2 class: projections with arithmetic and AS aliases, DISTINCT,
// a single FROM table and WHERE. Rows come back in insertion order.
// Aggregates, joins and ORDER BY are not supported (statistics aggregation
// happens in the batch layer).
func (db *DB) Query(sql string) ([]Row, error) {
	q, err := epl.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("sqlstore: %w", err)
	}
	return db.QueryParsed(q)
}

// QueryParsed evaluates an already-parsed SELECT: it validates and
// compiles the query, then scans the table through it. ThresholdStore,
// whose queries run per tuple, compiles each once and reuses it instead.
func (db *DB) QueryParsed(q *epl.Query) ([]Row, error) {
	cq, err := compileQuery(q)
	if err != nil {
		return nil, err
	}
	rows, _, err := db.run(cq)
	return rows, err
}

// compiledQuery is a validated SELECT compiled for row-by-row evaluation.
// Like its cep.RowQuery it is not safe for concurrent use: whoever shares
// one serialises its scans through mu.
type compiledQuery struct {
	mu   sync.Mutex
	q    *epl.Query
	rows *cep.RowQuery // expression i is the i-th non-star SELECT item
}

func compileQuery(q *epl.Query) (*compiledQuery, error) {
	if len(q.From) != 1 {
		return nil, fmt.Errorf("sqlstore: exactly one FROM table required, got %d", len(q.From))
	}
	if len(q.From[0].Views) != 0 {
		return nil, fmt.Errorf("sqlstore: stream views are not valid in SQL queries")
	}
	if len(q.GroupBy) > 0 || q.Having != nil {
		return nil, fmt.Errorf("sqlstore: GROUP BY/HAVING are not supported")
	}
	var exprs []epl.Expr
	for _, s := range q.Select {
		if s.Star {
			continue
		}
		if epl.HasAggregate(s.Expr) {
			return nil, fmt.Errorf("sqlstore: aggregates are not supported")
		}
		exprs = append(exprs, s.Expr)
	}
	return &compiledQuery{q: q, rows: cep.CompileRowQuery(q.From[0].Alias, q.Where, exprs)}, nil
}

// run scans the query's table through its compiled form, and returns the
// version of the table it scanned.
func (db *DB) run(cq *compiledQuery) ([]Row, uint64, error) {
	q := cq.q
	db.mu.Lock()
	db.queries++
	hist, cnt := db.queryHist, db.queryCnt
	db.mu.Unlock()
	if hist != nil {
		start := time.Now()
		defer func() {
			hist.ObserveDuration(time.Since(start))
			cnt.Inc()
		}()
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[q.From[0].Stream]
	if !ok {
		return nil, 0, fmt.Errorf("sqlstore: no table %q", q.From[0].Stream)
	}

	// DISTINCT keys a row by its values in the order of the output columns,
	// which every projected row holds: taken once, from the first.
	var (
		cols []string
		vals []any
		key  []byte
		seen map[string]bool
		out  []Row
	)
	for _, row := range t.rows {
		pass, err := cq.rows.Match(row)
		if err != nil {
			return nil, 0, err
		}
		if !pass {
			continue
		}
		proj := make(Row)
		i := 0
		for _, s := range q.Select {
			if s.Star {
				for _, c := range t.Columns {
					proj[c] = row[c]
				}
				continue
			}
			v, err := cq.rows.Value(i)
			if err != nil {
				return nil, 0, err
			}
			i++
			name := s.Alias
			if name == "" {
				name = s.Expr.String()
			}
			proj[name] = v
		}
		if q.Distinct {
			if cols == nil {
				cols = make([]string, 0, len(proj))
				for c := range proj {
					cols = append(cols, c)
				}
				slices.Sort(cols)
				vals = make([]any, len(cols))
				seen = make(map[string]bool)
			}
			for j, c := range cols {
				vals[j] = proj[c]
			}
			key = cep.AppendKey(key[:0], vals...)
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
		}
		out = append(out, proj)
	}
	return out, t.version, nil
}
