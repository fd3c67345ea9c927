package cep

import (
	"fmt"

	"trafficcep/internal/epl"
)

// Statement is one standing query registered in an engine. It owns its
// trigger plan, the plan's aggregate state and the listeners to notify on
// matches; the windows of its FROM items are the engine's (see view).
type Statement struct {
	Name  string
	Query *epl.Query

	engine *Engine
	// owned, when set, restricts the statement to the events of its stream
	// that hold an owned key (AddOwnedStatement).
	owned *keyIndex
	items []*fromItemState
	// stream is the stream the statement reads, and fed the indexes of its
	// FROM items over it: the trigger and the window items (both bd and bd2
	// in Listing 1); a table item is fed by none.
	stream     string
	fed        []int
	aliasOrder []string

	// bind resolves alias-qualified field references to their FROM-item
	// position at compile time, so evaluation indexes a slice instead of
	// hashing an alias per field access.
	bind map[*epl.FieldRef]int

	// conjuncts is the WHERE clause split at its ANDs; the planner sorts
	// them into equi-joins with the trigger, item filters and emit filters.
	conjuncts []epl.Expr

	// aggCalls are the distinct aggregate calls of SELECT and HAVING, in
	// first-appearance order: call i is aggregate slot i (evalContext.aggF).
	aggCalls  []*epl.CallExpr
	listeners []Listener

	// inc is the statement's trigger plan, its only evaluator
	// (incremental.go); a query the planner finds no plan for is refused at
	// registration.
	inc *incPlan

	// comp holds the compiled form of every expression the statement
	// evaluates; always non-nil after compile().
	comp *stmtCompiled

	metrics StatementMetrics
}

// StatementMetrics counts a statement's work. Every event of the
// statement's stream it is fed (EventsIn) is one evaluation.
type StatementMetrics struct {
	EventsIn uint64
	Firings  uint64
	Errors   uint64
}

// fromItemState is the runtime state of one FROM item.
type fromItemState struct {
	spec epl.FromItem
	// view is the engine's window for the item's stream and view chain,
	// possibly read by other statements too; set last in compile. A table
	// item has table instead, and no view.
	view  *view
	table *tableRef
	// schema is the slot table of the item's stream, or its table's
	// columns: every field of the item a statement touches is resolved
	// through it at registration.
	schema *streamSchema
}

// compile builds a Statement from a parsed query, restricted to owned when
// that is not nil. A query the trigger plan cannot run is an error that
// names the reason (planIncremental).
func compile(name string, q *epl.Query, eng *Engine, owned *keyIndex) (*Statement, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("cep: query has no FROM items")
	}
	if q.Distinct {
		// The parser keeps DISTINCT for sqlstore; no rule uses it.
		return nil, fmt.Errorf("cep: statement %q: DISTINCT is not supported", name)
	}
	st := &Statement{Name: name, Query: q, engine: eng, owned: owned}
	aliasToIdx := make(map[string]int, len(q.From))
	for i, f := range q.From {
		it := &fromItemState{spec: f}
		if ref := eng.tables[f.Stream]; ref != nil {
			if len(f.Views) > 1 || len(f.Views) == 1 && f.Views[0].String() != "win:keepall()" {
				return nil, fmt.Errorf("cep: statement %q: table %q is read through views; a table item takes none, or win:keepall()", name, f.Stream)
			}
			it.table, it.schema = ref, ref.schema
		} else {
			it.schema = eng.schemaFor(f.Stream)
			st.fed = append(st.fed, i)
		}
		st.items = append(st.items, it)
		st.aliasOrder = append(st.aliasOrder, f.Alias)
		aliasToIdx[f.Alias] = i
	}

	// Resolve alias-qualified field references to item positions once.
	st.bind = make(map[*epl.FieldRef]int)
	bindRefs := func(e epl.Expr) {
		epl.WalkExpr(e, func(x epl.Expr) {
			if r, ok := x.(*epl.FieldRef); ok && r.Alias != "" {
				if idx, known := aliasToIdx[r.Alias]; known {
					st.bind[r] = idx
				}
			}
		})
	}
	for _, s := range q.Select {
		bindRefs(s.Expr)
	}
	bindRefs(q.Where)
	for _, g := range q.GroupBy {
		bindRefs(g)
	}
	bindRefs(q.Having)
	for _, r := range epl.FieldRefs(q.Where) {
		if _, known := aliasToIdx[r.Alias]; r.Alias != "" && !known {
			return nil, fmt.Errorf("cep: statement %q: unknown alias %q in WHERE", name, r.Alias)
		}
	}
	// A table's rows hold its columns only.
	for r, idx := range st.bind {
		if t := st.items[idx].table; t != nil {
			if _, ok := t.schema.slot[r.Field]; !ok {
				return nil, fmt.Errorf("cep: statement %q: table %q has no column %q", name, t.name, r.Field)
			}
		}
	}
	st.conjuncts = splitConjuncts(q.Where)

	// Collect aggregate calls from SELECT and HAVING, once per rendering.
	seen := make(map[string]bool)
	for _, s := range q.Select {
		collectAggregates(s.Expr, seen, &st.aggCalls)
	}
	collectAggregates(q.Having, seen, &st.aggCalls)

	inc, err := planIncremental(st, aliasToIdx)
	if err != nil {
		return nil, fmt.Errorf("cep: statement %q: %w", name, err)
	}
	st.inc = inc
	st.stream = q.From[inc.trigIdx].Stream
	st.comp = compileStatement(st)
	if err := st.acquireViews(); err != nil {
		return nil, err
	}
	return st, nil
}

// acquireViews resolves every FROM item to an engine view — the last step of
// compile, so a statement that fails to compile leaves no view behind — and
// hands the trigger plan the views it reads directly.
func (st *Statement) acquireViews() error {
	for _, it := range st.items {
		if it.table != nil {
			continue
		}
		v, err := st.engine.acquireView(st, it.spec, it.schema)
		if err != nil {
			st.releaseViews()
			return fmt.Errorf("cep: statement %q item %q: %w", st.Name, it.spec.Alias, err)
		}
		it.view = v
	}
	st.inc.attach(st)
	return nil
}

// releaseViews gives the statement's views back to the engine.
func (st *Statement) releaseViews() {
	for _, it := range st.items {
		if it.view != nil {
			st.engine.releaseView(it.view)
			it.view = nil
		}
	}
}

// reads reports whether one of the statement's items already resolved to v.
func (st *Statement) reads(v *view) bool {
	for _, it := range st.items {
		if it.view == v {
			return true
		}
	}
	return false
}

// splitConjuncts flattens a WHERE tree into AND-connected conjuncts.
func splitConjuncts(e epl.Expr) []epl.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*epl.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []epl.Expr{e}
}

// AddListener registers a callback for this statement's firings.
// Not safe to call concurrently with event delivery.
func (st *Statement) AddListener(l Listener) { st.listeners = append(st.listeners, l) }

// Metrics returns a copy of the statement's counters.
func (st *Statement) Metrics() StatementMetrics { return st.metrics }

// WindowSizes reports the current size of each FROM item's window, keyed by
// alias (used by tests and the latency-model calibration); a table item's
// is its table's row count.
func (st *Statement) WindowSizes() map[string]int {
	out := make(map[string]int, len(st.items))
	for _, it := range st.items {
		if it.table != nil {
			out[it.spec.Alias] = it.table.cur.Len()
		} else {
			out[it.spec.Alias] = it.view.win.size()
		}
	}
	return out
}

// process delivers one event of the statement's stream: window updates,
// the trigger plan's folds, the evaluation, listener dispatch. Called with
// the engine lock held. Every event of the stream reaches the trigger item,
// so every one triggers an evaluation, whose outcome is the event's
// (UNIDIRECTIONAL changes nothing).
func (st *Statement) process(ev *Event) error {
	st.metrics.EventsIn++
	for _, idx := range st.fed {
		st.inc.applyDelta(idx, ev, st.items[idx].view.insert(ev))
	}
	outputs, err := st.inc.evaluate(ev)
	if err != nil {
		st.metrics.Errors++
		return err
	}
	if len(outputs) > 0 {
		st.metrics.Firings += uint64(len(outputs))
		for _, l := range st.listeners {
			l(st, outputs)
		}
	}
	return nil
}

// rowMap exposes a position-indexed row as the alias→event map carried on
// outputs for listeners that need raw access.
func (st *Statement) rowMap(row []*Event) map[string]*Event {
	m := make(map[string]*Event, len(row))
	for i, ev := range row {
		if ev != nil {
			m[st.aliasOrder[i]] = ev
		}
	}
	return m
}

// project builds one output from the SELECT clause.
func (st *Statement) project(ctx *evalContext, row []*Event) (Output, error) {
	fields := make(map[string]Value, len(st.Query.Select))
	for i, s := range st.Query.Select {
		v, err := st.comp.selectC[i](ctx)
		if err != nil {
			return Output{}, err
		}
		name := s.Alias
		if name == "" {
			name = s.Expr.String()
		}
		fields[name] = v
	}
	return Output{Fields: fields, Row: st.rowMap(row)}, nil
}
