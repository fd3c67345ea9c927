package cep

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Table is an immutable keyed table: the rows a win:keepall() stream would
// hold, indexed for the join the rule template makes with them (Listing 1's
// thresholds). An engine reads it under a name (Engine.RegisterTable); a
// FROM item over that name with no view, or win:keepall(), that equi-joins
// every key column through the trigger reads the table instead of a stream,
// and sees exactly what a keep-all window fed the rows in order would hold.
//
// Rows are laid out in blocks, one per value of the first key column — the
// location — each sorted by the remaining key columns, so that a probe finds
// a location's block once and matches the hour and day inside it without
// rendering a key. Rows with equal keys stay in table order. A table holds
// no engine state: one Table may be registered in several engines.
type Table struct {
	cols  []string
	nkeys int
	rows  []Event
	// keys holds row r's remaining key values at keys[r*w:(r+1)*w],
	// w = nkeys-1, in the form keyVal compares them.
	keys []keyVal
	// blocks holds each block's rows by valueKey of the first key column.
	blocks map[string]span
}

// span is the rows [lo, hi) of a table.
type span struct{ lo, hi int }

// NewTable builds a table over columns, the first keys of which are its key
// columns. Each row is a map like an event's fields, kept as the row's
// Fields; a column the row lacks reads nil, as a field an event lacks does.
func NewTable(columns []string, keys int, rows []map[string]Value) (*Table, error) {
	if keys < 1 || keys > len(columns) {
		return nil, fmt.Errorf("cep: a table of %d columns cannot have %d key columns", len(columns), keys)
	}
	for i, c := range columns {
		if slices.Contains(columns[:i], c) {
			return nil, fmt.Errorf("cep: table column %q appears twice", c)
		}
	}
	// Count each block's rows, numbering the blocks in order of first
	// appearance; then place each row at its block's next position, which
	// keeps table order within a block.
	nc, w := len(columns), keys-1
	blockOf := make([]int, len(rows))
	ids := make(map[string]int)
	var next []int
	var names []string
	for i, r := range rows {
		k := valueKey(r[columns[0]])
		id, ok := ids[k]
		if !ok {
			id = len(names)
			ids[k] = id
			names = append(names, k)
			next = append(next, 0)
		}
		blockOf[i] = id
		next[id]++
	}
	t := &Table{cols: slices.Clone(columns), nkeys: keys, rows: make([]Event, len(rows)),
		keys: make([]keyVal, len(rows)*w), blocks: make(map[string]span, len(names))}
	lo := 0
	for id, n := range next {
		t.blocks[names[id]] = span{lo, lo + n}
		next[id], lo = lo, lo+n
	}
	slots := make([]Value, len(rows)*nc)
	for i, fields := range rows {
		p := next[blockOf[i]]
		next[blockOf[i]]++
		ev := &t.rows[p]
		ev.Fields, ev.slots = fields, slots[p*nc:(p+1)*nc:(p+1)*nc]
		for j, c := range columns {
			ev.slots[j] = fields[c]
		}
	}
	for _, sp := range t.blocks {
		blk := t.rows[sp.lo:sp.hi]
		slices.SortStableFunc(blk, func(x, y Event) int {
			for j := 1; j < keys; j++ {
				if c := keyValOf(x.slots[j]).compare(keyValOf(y.slots[j])); c != 0 {
					return c
				}
			}
			return 0
		})
	}
	for r := range t.rows {
		for j := 1; j < keys; j++ {
			t.keys[r*w+j-1] = keyValOf(t.rows[r].slots[j])
		}
	}
	return t, nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// run returns the span of the rows in sp whose remaining key columns equal
// q.
func (t *Table) run(sp span, q []keyVal) span {
	w := len(q)
	if w == 0 {
		return sp
	}
	cmpRow := func(r int) int {
		for j, v := range t.keys[r*w : (r+1)*w] {
			if c := v.compare(q[j]); c != 0 {
				return c
			}
		}
		return 0
	}
	lo, hi := sp.lo, sp.hi
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cmpRow(m) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	end := lo
	for end < sp.hi && cmpRow(end) == 0 {
		end++
	}
	return span{lo, end}
}

// keyVal is a value as join keys compare it: compare finds two values
// equal exactly when valueKey renders them alike — numbers by magnitude
// whatever their Go type, NaN equal to NaN — and orders keyVals totally,
// for a block's sort.
type keyVal struct {
	kind byte
	f    float64
	s    string
}

func keyValOf(v Value) keyVal {
	if n, ok := numeric(v); ok {
		return keyVal{kind: 'n', f: n}
	}
	switch x := v.(type) {
	case string:
		return keyVal{kind: 's', s: x}
	case nil:
		return keyVal{kind: '_'}
	default:
		return keyVal{kind: 'o', s: fmt.Sprint(x)}
	}
}

// compare is cmp.Compare on the number, which holds NaN equal to NaN and
// below every other number.
func (a keyVal) compare(b keyVal) int {
	return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.f, b.f), strings.Compare(a.s, b.s))
}

// equal is compare(b) == 0, without the ordering.
func (a keyVal) equal(b keyVal) bool {
	return a.kind == b.kind && (a.f == b.f || a.f != a.f && b.f != b.f) && a.s == b.s
}

// tableRef is an engine's registration of a table name: the column layout
// every version under the name shares, which the name's FROM items compile
// against, and the current version. A swap stores cur, under the engine
// lock; a probe that finds a per-location entry resolved against an older
// version resolves it again.
type tableRef struct {
	name   string
	schema *streamSchema
	nkeys  int
	cur    *Table
}

// RegisterTable makes t the table that FROM items over name read. The first
// registration fixes the name's columns and key columns; a later one must
// keep them, and swaps the version every statement reading name sees from
// the next event on — statements and windows stay. A name some statement
// reads as a stream cannot become a table; an event sent on a table's name
// reaches no table item.
func (e *Engine) RegisterTable(name string, t *Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ref := e.tables[name]
	switch {
	case ref == nil && e.schemas[name] != nil && len(e.schemas[name].readers) > 0:
		return fmt.Errorf("cep: %q is read as a stream", name)
	case ref == nil:
		ref = &tableRef{name: name, schema: newStreamSchema(), nkeys: t.nkeys}
		ref.schema.slotsOf(t.cols)
		e.tables[name] = ref
	case !slices.Equal(ref.schema.names, t.cols) || ref.nkeys != t.nkeys:
		return fmt.Errorf("cep: table %q has columns %v with %d keys, not %v with %d", name, ref.schema.names, ref.nkeys, t.cols, t.nkeys)
	}
	ref.cur = t
	return nil
}

// Table returns the version of the table registered under name, or nil if
// none is.
func (e *Engine) Table(name string) *Table {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ref := e.tables[name]; ref != nil {
		return ref.cur
	}
	return nil
}
