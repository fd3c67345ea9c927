package cep

import (
	"fmt"
	"time"

	"trafficcep/internal/epl"
)

// Statement is one standing query registered in an engine. It owns a
// compiled join plan, its aggregate state and the listeners to notify on
// matches; the windows of its FROM items are the engine's (see view).
type Statement struct {
	Name  string
	Query *epl.Query

	engine *Engine
	// owned, when set, restricts the statement to the events of its stream
	// that hold an owned key (AddOwnedStatement).
	owned *ownedSet
	items []*fromItemState
	// itemsByStream maps a stream name to the indexes of FROM items fed
	// by it (one stream can back several items, as in Listing 1 where
	// both bd and bd2 read from "bus").
	itemsByStream map[string][]int
	aliasOrder    []string

	// bind resolves alias-qualified field references to their FROM-item
	// position at compile time, so evaluation indexes a slice instead of
	// hashing an alias per field access.
	bind map[*epl.FieldRef]int

	// conjuncts is the full WHERE decomposition, before any conjunct is
	// consumed as an index probe; the incremental planner analyzes it.
	conjuncts []epl.Expr

	// filters[i] holds the WHERE conjuncts evaluable once items 0..i are
	// bound (and not already consumed as join-index probes).
	filters [][]epl.Expr

	// aggCalls are the distinct aggregate calls of SELECT and HAVING, in
	// first-appearance order: call i is aggregate slot i (evalContext.aggF).
	aggCalls  []*epl.CallExpr
	hasAgg    bool
	listeners []Listener

	// unidirectional is true when any FROM item carries UNIDIRECTIONAL;
	// then only arrivals on such items trigger evaluation.
	unidirectional bool

	// inc holds the statement's incremental plan when the planner proved
	// the query safe for delta-driven evaluation; nil when the query has no
	// trigger item or uses features the plan cannot prove correct.
	inc *incPlan

	// comp holds the compiled form of every expression the statement
	// evaluates; always non-nil after compile().
	comp *stmtCompiled

	// rowScratch and keyBuf are reusable buffers for the join hot path.
	rowScratch []*Event
	keyBuf     []byte

	metrics StatementMetrics
}

// StatementMetrics counts a statement's work. ProcTime accumulates wall
// time spent inside process(), sampled only when the engine has a telemetry
// registry attached (clock reads are skipped otherwise).
type StatementMetrics struct {
	EventsIn    uint64
	Evaluations uint64
	Firings     uint64
	Errors      uint64
	// IncrementalEvals counts evaluations served by the incremental path;
	// RecomputeFallbacks counts evaluations served by a full join recompute
	// (the query is ineligible, or its incremental plan broke).
	IncrementalEvals   uint64
	RecomputeFallbacks uint64
	ProcTime           time.Duration
}

// fromItemState is the runtime state of one FROM item.
type fromItemState struct {
	spec epl.FromItem
	// view is the engine's window for the item's stream and view chain,
	// possibly read by other statements too; set last in compile.
	view *view
	// schema is the slot table of the item's stream: every field of the
	// item a statement touches is resolved through it at registration.
	schema *streamSchema

	// Join indexing: when probeExprs is non-empty, the item's window is
	// additionally indexed on the fields at indexSlots; candidates are
	// found by evaluating probeExprs (compiled form: probeC) against the
	// already-bound row.
	indexSlots []int
	probeExprs []epl.Expr
	probeC     []compiledExpr
	index      map[string][]*Event
	keyBuf     []byte
}

// compile builds a Statement from a parsed query, restricted to owned when
// that is not nil.
func compile(name string, q *epl.Query, eng *Engine, owned *ownedSet) (*Statement, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("cep: query has no FROM items")
	}
	if q.Distinct {
		// The parser keeps DISTINCT for sqlstore; no rule uses it.
		return nil, fmt.Errorf("cep: statement %q: DISTINCT is not supported", name)
	}
	st := &Statement{
		Name:          name,
		Query:         q,
		engine:        eng,
		owned:         owned,
		itemsByStream: make(map[string][]int),
	}
	aliasToIdx := make(map[string]int, len(q.From))
	for i, f := range q.From {
		st.items = append(st.items, &fromItemState{spec: f, schema: eng.schemaFor(f.Stream)})
		st.itemsByStream[f.Stream] = append(st.itemsByStream[f.Stream], i)
		st.aliasOrder = append(st.aliasOrder, f.Alias)
		aliasToIdx[f.Alias] = i
		if f.Unidirectional {
			st.unidirectional = true
		}
	}
	st.rowScratch = make([]*Event, len(st.items))

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
		if !s.Star {
			bindRefs(s.Expr)
		}
	}
	bindRefs(q.Where)
	for _, g := range q.GroupBy {
		bindRefs(g)
	}
	bindRefs(q.Having)

	// Decompose WHERE into conjuncts and plan the join.
	st.conjuncts = splitConjuncts(q.Where)
	st.filters = make([][]epl.Expr, len(q.From))
	for _, c := range st.conjuncts {
		if !eng.disableIndexJoins && st.tryIndexConjunct(c, aliasToIdx) {
			continue
		}
		pos, err := bindingPosition(c, aliasToIdx, len(q.From))
		if err != nil {
			return nil, fmt.Errorf("cep: statement %q: %w", name, err)
		}
		st.filters[pos] = append(st.filters[pos], c)
	}
	for _, it := range st.items {
		if len(it.indexSlots) > 0 {
			it.index = make(map[string][]*Event)
		}
	}

	// Collect aggregate calls from SELECT and HAVING, once per rendering.
	seen := make(map[string]bool)
	for _, s := range q.Select {
		if !s.Star {
			collectAggregates(s.Expr, seen, &st.aggCalls)
		}
	}
	collectAggregates(q.Having, seen, &st.aggCalls)
	st.hasAgg = len(st.aggCalls) > 0

	st.inc = planIncremental(st, aliasToIdx)
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
		v, err := st.engine.acquireView(st, it.spec, it.schema)
		if err != nil {
			st.releaseViews()
			return fmt.Errorf("cep: statement %q item %q: %w", st.Name, it.spec.Alias, err)
		}
		it.view = v
	}
	if st.inc != nil && !st.inc.broken {
		st.inc.attach(st)
	}
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

// tryIndexConjunct turns "a.x = b.y" conjuncts into join-index probes when
// one side belongs to a later FROM item than the other. Returns true when
// the conjunct was consumed. Conjuncts naming an unknown alias are left
// alone so bindingPosition can surface the error.
func (st *Statement) tryIndexConjunct(c epl.Expr, aliasToIdx map[string]int) bool {
	b, ok := c.(*epl.BinaryExpr)
	if !ok || b.Op != "=" {
		return false
	}
	lr, lok := b.Left.(*epl.FieldRef)
	rr, rok := b.Right.(*epl.FieldRef)
	if !lok || !rok || lr.Alias == "" || rr.Alias == "" || lr.Alias == rr.Alias {
		return false
	}
	li, lok := aliasToIdx[lr.Alias]
	ri, rok := aliasToIdx[rr.Alias]
	if !lok || !rok {
		return false
	}
	// Index the later item on its own field; probe with the earlier side.
	inner, outer := lr, rr
	innerIdx := li
	if ri > li {
		inner, outer = rr, lr
		innerIdx = ri
	}
	it := st.items[innerIdx]
	it.indexSlots = append(it.indexSlots, it.schema.slotOf(inner.Field))
	it.probeExprs = append(it.probeExprs, outer)
	return true
}

// bindingPosition returns the earliest join level at which every alias the
// conjunct references is bound. Conjuncts with unqualified field references
// bind at the last level.
func bindingPosition(c epl.Expr, aliasToIdx map[string]int, nItems int) (int, error) {
	pos := 0
	for _, r := range epl.FieldRefs(c) {
		if r.Alias == "" {
			return nItems - 1, nil
		}
		idx, ok := aliasToIdx[r.Alias]
		if !ok {
			return 0, fmt.Errorf("unknown alias %q in WHERE", r.Alias)
		}
		if idx > pos {
			pos = idx
		}
	}
	return pos, nil
}

// AddListener registers a callback for this statement's firings.
// Not safe to call concurrently with event delivery.
func (st *Statement) AddListener(l Listener) { st.listeners = append(st.listeners, l) }

// Metrics returns a copy of the statement's counters.
func (st *Statement) Metrics() StatementMetrics { return st.metrics }

// WindowSizes reports the current size of each FROM item's window, keyed by
// alias (used by tests and the latency-model calibration).
func (st *Statement) WindowSizes() map[string]int {
	out := make(map[string]int, len(st.items))
	for _, it := range st.items {
		out[it.spec.Alias] = it.view.win.size()
	}
	return out
}

// process delivers one event to the statement: window updates, optional
// evaluation, listener dispatch. Called with the engine lock held.
func (st *Statement) process(ev *Event) error {
	sample := st.engine.reg != nil
	var start time.Time
	if sample {
		start = time.Now()
	}
	st.metrics.EventsIn++

	triggered := false
	var maintErr error
	// An armed plan leaves the join indexes idle. If it breaks on
	// this event they stay idle until every item took the event, and are
	// rebuilt from the windows then: a shared view may already hold the
	// event when this statement reaches it, so only after the loop do the
	// windows agree on what an index must contain.
	idle := st.indexesIdle()
	for _, idx := range st.itemsByStream[ev.Stream] {
		it := st.items[idx]
		evicted := it.view.insert(ev)
		if it.index != nil && !idle {
			if evicted != nil {
				it.indexRemove(evicted)
			}
			it.indexAdd(ev)
		}
		if st.inc != nil && !st.inc.broken {
			if err := st.inc.applyDelta(idx, ev, evicted); err != nil {
				// Incremental state can no longer be trusted; fall back to
				// full recompute permanently for this statement.
				st.inc.disable()
				maintErr = err
			}
		}
		if !st.unidirectional || it.spec.Unidirectional {
			triggered = true
		}
	}
	if idle && st.inc.broken {
		st.rebuildIndexes()
	}

	var err error
	if triggered {
		st.metrics.Evaluations++
		var outputs []Output
		outputs, err = st.evaluate()
		if err != nil {
			st.metrics.Errors++
		} else if len(outputs) > 0 {
			st.metrics.Firings += uint64(len(outputs))
			for _, l := range st.listeners {
				l(st, outputs)
			}
		}
	} else if maintErr != nil {
		// No evaluation follows to reproduce the failure, so surface the
		// maintenance error itself.
		st.metrics.Errors++
		err = maintErr
	}
	if sample {
		st.metrics.ProcTime += time.Since(start)
	}
	return err
}

// indexesIdle reports whether join-index maintenance can be skipped: an
// armed plan never probes the hash indexes (it keeps its own per-item
// accumulators), so maintaining them per insert would be pure overhead —
// ~10% of the Listing-1 hot path, all in the O(bucket) remove scan. A
// broken plan recomputes through them, so when the plan breaks, process
// rebuilds the indexes from window contents.
func (st *Statement) indexesIdle() bool {
	return st.inc != nil && !st.inc.broken
}

// rebuildIndexes repopulates every join index from its window's current
// contents — the recovery path when the plan breaks after running
// with index maintenance skipped.
func (st *Statement) rebuildIndexes() {
	for _, it := range st.items {
		if it.index == nil {
			continue
		}
		it.index = make(map[string][]*Event, len(it.index))
		for _, ev := range it.view.win.contents() {
			it.indexAdd(ev)
		}
	}
}

func (it *fromItemState) indexKey(ev *Event) []byte {
	it.keyBuf = appendSlotsKey(it.keyBuf[:0], ev, it.indexSlots)
	return it.keyBuf
}

func (it *fromItemState) indexAdd(ev *Event) {
	k := string(it.indexKey(ev))
	it.index[k] = append(it.index[k], ev)
}

func (it *fromItemState) indexRemove(ev *Event) {
	k := it.indexKey(ev)
	bucket := it.index[string(k)]
	for i, e := range bucket {
		if e == ev {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(it.index, string(k))
	} else {
		it.index[string(k)] = bucket
	}
}

// evaluate produces the statement's outputs: through the incremental path
// when the planner armed one, otherwise by recomputing the join over the
// current window contents.
func (st *Statement) evaluate() ([]Output, error) {
	if st.inc != nil && !st.inc.broken {
		st.metrics.IncrementalEvals++
		return st.inc.evaluate()
	}
	st.metrics.RecomputeFallbacks++
	rows, err := st.joinRows()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if st.hasAgg || len(st.Query.GroupBy) > 0 {
		return st.evaluateGrouped(rows)
	}
	return st.evaluateRows(rows)
}

// joinRows enumerates the join of all FROM items' windows, applying filters
// as early as their aliases allow and using hash indexes for equi-joins.
// Rows are position-indexed by FROM item.
func (st *Statement) joinRows() ([][]*Event, error) {
	var rows [][]*Event
	row := st.rowScratch
	for i := range row {
		row[i] = nil
	}
	probeCtx := &evalContext{row: row, funcs: st.engine.funcs}

	var rec func(level int) error
	rec = func(level int) error {
		if level == len(st.items) {
			cp := make([]*Event, len(row))
			copy(cp, row)
			rows = append(rows, cp)
			return nil
		}
		it := st.items[level]
		var candidates []*Event
		if it.index != nil {
			buf := st.keyBuf[:0]
			for i, pe := range it.probeC {
				v, err := pe(probeCtx)
				if err != nil {
					return err
				}
				if i > 0 {
					buf = append(buf, keySep)
				}
				buf = appendValueKey(buf, v)
			}
			st.keyBuf = buf
			candidates = it.index[string(buf)]
		} else {
			candidates = it.view.win.contents()
		}
		for _, ev := range candidates {
			row[level] = ev
			ok := true
			for _, f := range st.comp.filtersC[level] {
				pass, err := f(probeCtx)
				if err != nil {
					row[level] = nil
					return err
				}
				if !pass {
					ok = false
					break
				}
			}
			if ok {
				if err := rec(level + 1); err != nil {
					row[level] = nil
					return err
				}
			}
		}
		row[level] = nil
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return rows, nil
}

// evaluateGrouped handles queries with GROUP BY and/or aggregates. Each
// group's aggregates fill the same slots the trigger plan fills.
func (st *Statement) evaluateGrouped(rows [][]*Event) ([]Output, error) {
	type group struct {
		rows [][]*Event
	}
	groups := make(map[string]*group)
	var order []*group
	keyCtx := &evalContext{funcs: st.engine.funcs}
	var vals []Value
	if n := len(st.Query.GroupBy); n > 0 {
		vals = make([]Value, n)
	}
	for _, row := range rows {
		buf := st.keyBuf[:0]
		if len(st.Query.GroupBy) > 0 {
			keyCtx.row = row
			for i, g := range st.comp.groupByC {
				v, err := g(keyCtx)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			buf = appendCompositeKey(buf, vals)
		}
		st.keyBuf = buf
		grp, ok := groups[string(buf)]
		if !ok {
			grp = &group{}
			groups[string(buf)] = grp
			order = append(order, grp)
		}
		grp.rows = append(grp.rows, row)
	}

	var outputs []Output
	ctx := &evalContext{
		funcs:   st.engine.funcs,
		aggF:    make([]float64, len(st.aggCalls)),
		aggNull: make([]bool, len(st.aggCalls)),
	}
	for _, grp := range order {
		if err := st.computeAggregates(grp.rows, ctx); err != nil {
			return nil, err
		}
		// The representative row for non-aggregated expressions is the
		// most recent row of the group.
		repr := grp.rows[len(grp.rows)-1]
		ctx.row = repr
		if st.comp.havingC != nil {
			pass, err := st.comp.havingC(ctx)
			if err != nil {
				return nil, err
			}
			if !pass {
				continue
			}
		}
		out, err := st.project(ctx, repr)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, out)
	}
	return outputs, nil
}

// evaluateRows handles aggregate-free queries: one output per join row.
func (st *Statement) evaluateRows(rows [][]*Event) ([]Output, error) {
	var outputs []Output
	ctx := &evalContext{funcs: st.engine.funcs}
	for _, row := range rows {
		ctx.row = row
		if st.comp.havingC != nil {
			pass, err := st.comp.havingC(ctx)
			if err != nil {
				return nil, err
			}
			if !pass {
				continue
			}
		}
		out, err := st.project(ctx, row)
		if err != nil {
			return nil, err
		}
		outputs = append(outputs, out)
	}
	return outputs, nil
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
	fields := make(map[string]Value)
	for i, s := range st.Query.Select {
		if s.Star {
			st.projectStar(fields, row)
			continue
		}
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

// projectStar copies event fields into the output. With a single FROM item
// the fields appear unqualified; with a join they are prefixed alias.field
// to avoid collisions.
func (st *Statement) projectStar(into map[string]Value, row []*Event) {
	if len(st.items) == 1 {
		if ev := row[0]; ev != nil {
			for k, v := range ev.Fields {
				into[k] = v
			}
		}
		return
	}
	for i, it := range st.items {
		ev := row[i]
		if ev == nil {
			continue
		}
		for k, v := range ev.Fields {
			into[it.spec.Alias+"."+k] = v
		}
	}
}
