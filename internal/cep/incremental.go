package cep

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"trafficcep/internal/epl"
)

// This file implements the engine's one evaluator, the trigger plan
// (incPlan): instead of enumerating the join of the windows on each
// arrival, a statement keeps running aggregate state that it maintains from
// each window's delta — the arriving event, and the position it took.
//
// The engine runs one statement shape, the paper's rule template (Listing
// 1, §3.3): one std:lastevent() item on a stream S, the trigger; window
// items S.std:groupwin(f).win:length(n), each joined to the trigger by
// exactly t.f = w.f; and items over registered tables, every key column
// equi-joined to a trigger field. Every join row holds the trigger's event,
// so the join factorizes per item: a window item's matches are the group
// the trigger event itself went to, whose accumulators (count, sum, sum of
// squares, value counts for min/max) live in the group (groupAcc), and a
// table item's are the rows of the trigger's key, folded on a probe that
// the trigger's key-index entry keeps (tableProbe). An evaluation is O(1)
// arithmetic per item, independent of the window length l. No window holds
// the events it counts: an item records, per position of a group, what the
// arrival there folded, with the functions registered then (its value
// ring), and the eviction subtracts that.
//
// A query of another shape is refused at registration, with the reason
// (planIncremental): it is aggregate-free, uses SELECT *, has no trigger or
// two, reads a second stream, has a window item that is not grouped on one
// field and bounded, or not joined on its group field, an equi-join that
// does not read the trigger, a restricted window grouped off the owned
// field, runs an impure function where state is maintained, reads a field
// the trigger cannot resolve, or calls an aggregate with the wrong arity.
//
// An event the plan cannot fold — its item filter errs, or an aggregate
// argument errs, is not numeric or is not finite — stays counted against
// its group until its window drops it. An evaluation follows the
// recompute it replaces (the test-only oracle in oracle_test.go): emit
// filters first; then the other items in FROM order, where a key holding a
// filter failure returns that error and a key with no passing event ends
// the evaluation without output; then, with every item matched, an
// argument failure returns its error.
//
// Caveat (documented in DESIGN.md): aggregates over non-integer float data
// may differ from a recompute in the last ulp, because sums are maintained
// by subtraction on eviction instead of re-added in window order.

// aggSpec is one aggregate slot's maintenance: spec i is Statement.aggCalls[i].
type aggSpec struct {
	call      *epl.CallExpr
	star      bool // count(*)
	countOnly bool // count(expr): argument need not be numeric
	track     bool // min/max: keep value counts for eviction rescans
	anchor    int  // item the argument reads; -1 = emit-time
	slot      int  // accumulator position within the anchor item

	// argC is the compiled argument extractor (nil for count(*)),
	// attached by compileStatement after planning.
	argC compiledExpr
}

// aggAcc is one maintained aggregate accumulator.
type aggAcc struct {
	n          int
	sum, sumSq float64
	min, max   float64
	vals       map[float64]int // only when the spec tracks min/max
}

func (a *aggAcc) add(f float64, track bool) {
	if a.n == 0 || f < a.min {
		a.min = f
	}
	if a.n == 0 || f > a.max {
		a.max = f
	}
	a.n++
	a.sum += f
	a.sumSq += f * f
	if track {
		if a.vals == nil {
			a.vals = make(map[float64]int)
		}
		a.vals[f]++
	}
}

func (a *aggAcc) remove(f float64, track bool) {
	a.n--
	a.sum -= f
	a.sumSq -= f * f
	if a.n == 0 {
		// Integer-valued streams cancel exactly; clear any float residue so
		// an emptied accumulator restarts clean either way.
		a.sum, a.sumSq = 0, 0
	}
	if track {
		if c := a.vals[f] - 1; c <= 0 {
			delete(a.vals, f)
		} else {
			a.vals[f] = c
		}
		if a.n > 0 && (f <= a.min || f >= a.max) {
			first := true
			for v := range a.vals {
				if first {
					a.min, a.max = v, v
					first = false
					continue
				}
				if v < a.min {
					a.min = v
				}
				if v > a.max {
					a.max = v
				}
			}
		}
	}
}

// fold adds (sign +1) or retracts (sign -1) one held argument value: a
// NULL argument counts in no aggregate, and count(expr) only counts.
func (a *aggAcc) fold(spec *aggSpec, c ringCell, sign int) {
	switch {
	case !c.ok:
	case spec.countOnly:
		a.n += sign
	case sign > 0:
		a.add(c.f, spec.track)
	default:
		a.remove(c.f, spec.track)
	}
}

// anchoredAggFloat derives sum/avg/min/max/stddev from an accumulator whose
// rows each appear m times in the join (m multiplies counts and sums; it
// cancels out of avg/min/max). The (value, isNull) pair fills an aggregate
// slot.
func anchoredAggFloat(spec *aggSpec, a *aggAcc, m float64) (float64, bool) {
	if a.n == 0 {
		return 0, true
	}
	switch spec.call.Func {
	case "sum":
		return a.sum * m, false
	case "avg":
		return a.sum / float64(a.n), false
	case "min":
		return a.min, false
	case "max":
		return a.max, false
	case "stddev":
		nTot := float64(a.n) * m
		if nTot < 2 {
			return 0, true
		}
		mean := a.sum / float64(a.n)
		variance := (m*a.sumSq - nTot*mean*mean) / (nTot - 1)
		if variance < 0 {
			variance = 0
		}
		return math.Sqrt(variance), false
	}
	return 0, true
}

// fieldNode identifies one (FROM item, field) endpoint of an equi-join.
type fieldNode struct {
	item  int
	field string
}

// pureExpr reports whether an expression can be evaluated at window-
// maintenance time: no aggregates and no engine-registered (potentially
// impure or later-registered) functions — built-ins only.
func pureExpr(e epl.Expr) bool {
	pure := true
	epl.WalkExpr(e, func(x epl.Expr) {
		if c, ok := x.(*epl.CallExpr); ok {
			if epl.AggregateFuncs[c.Func] {
				pure = false
				return
			}
			if _, builtin := builtinFuncs[c.Func]; !builtin {
				pure = false
			}
		}
	})
	return pure
}

// walkNonAgg visits every field reference outside aggregate-call subtrees.
func walkNonAgg(e epl.Expr, f func(*epl.FieldRef)) {
	switch x := e.(type) {
	case nil:
		return
	case *epl.FieldRef:
		f(x)
	case *epl.BinaryExpr:
		walkNonAgg(x.Left, f)
		walkNonAgg(x.Right, f)
	case *epl.UnaryExpr:
		walkNonAgg(x.Expr, f)
	case *epl.CallExpr:
		if epl.AggregateFuncs[x.Func] {
			return
		}
		for _, a := range x.Args {
			walkNonAgg(a, f)
		}
	}
}

// equiConjunct recognizes "a.x = b.y" with both aliases known.
func equiConjunct(c epl.Expr, aliasToIdx map[string]int) (fieldNode, fieldNode, bool) {
	b, ok := c.(*epl.BinaryExpr)
	if !ok || b.Op != "=" {
		return fieldNode{}, fieldNode{}, false
	}
	lr, lok := b.Left.(*epl.FieldRef)
	rr, rok := b.Right.(*epl.FieldRef)
	if !lok || !rok || lr.Alias == "" || rr.Alias == "" {
		return fieldNode{}, fieldNode{}, false
	}
	li, lok := aliasToIdx[lr.Alias]
	ri, rok := aliasToIdx[rr.Alias]
	if !lok || !rok {
		return fieldNode{}, fieldNode{}, false
	}
	return fieldNode{li, lr.Field}, fieldNode{ri, rr.Field}, true
}

// singleItemConjunct reports the one item a non-equi conjunct's references
// cover (-1 when it has no field references at all), and refuses one that
// spans items or reads an unqualified field.
func singleItemConjunct(c epl.Expr, aliasToIdx map[string]int) (int, error) {
	item := -1
	for _, r := range epl.FieldRefs(c) {
		if r.Alias == "" {
			return 0, errUnresolvable(r)
		}
		if idx := aliasToIdx[r.Alias]; item == -1 {
			item = idx
		} else if item != idx {
			return 0, fmt.Errorf("WHERE conjunct %s spans items without being an equi-join", c)
		}
	}
	return item, nil
}

func errUnresolvable(r *epl.FieldRef) error {
	return fmt.Errorf("field %s is not resolvable through the trigger", r)
}

// planIncremental builds the statement's trigger plan, or returns the
// reason the statement has none: registration refuses it.
func planIncremental(st *Statement, aliasToIdx map[string]int) (*incPlan, error) {
	q := st.Query
	if len(st.aggCalls) == 0 && len(q.GroupBy) == 0 {
		return nil, errors.New("the query is aggregate-free (no aggregate, no GROUP BY)")
	}
	for _, s := range q.Select {
		if s.Star {
			return nil, errors.New("SELECT * is not supported")
		}
	}
	aggs, err := planAggSpecs(st)
	if err != nil {
		return nil, err
	}
	return planTrigger(st, aliasToIdx, aggs)
}

// planAggSpecs makes one spec per aggregate slot and verifies each can be
// maintained: known shape, pure argument.
func planAggSpecs(st *Statement) ([]*aggSpec, error) {
	var specs []*aggSpec
	for _, call := range st.aggCalls {
		s := &aggSpec{call: call, anchor: -1}
		switch {
		case call.Star && call.Func != "count":
			return nil, fmt.Errorf("%s: only count takes *", call)
		case call.Star:
			s.star = true
		case len(call.Args) != 1:
			return nil, fmt.Errorf("aggregate %s takes 1 argument", call)
		case !pureExpr(call.Args[0]):
			return nil, fmt.Errorf("aggregate argument %s is impure", call.Args[0])
		default:
			s.countOnly = call.Func == "count"
			s.track = call.Func == "min" || call.Func == "max"
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// incPlan is a statement's trigger plan. It factorizes the join around the
// std:lastevent item T: every join row contains exactly T's current event,
// so each other item contributes an independent multiset of matches — the
// group of T's key in a window item, the rows of T's key in a table item.
// Aggregates combine per-item sums with multiplicities.
type incPlan struct {
	st *Statement

	trigIdx int
	// emitFilters are conjuncts over the trigger item only (or with no
	// field references); they are checked once per evaluation.
	// emitFiltersC is the compiled form.
	emitFilters  []epl.Expr
	emitFiltersC []compiledBool
	items        []*incItemState // indexed by FROM position; nil at trigIdx
	aggs         []*aggSpec

	// row/ctx are the emit and maintenance scratch.
	row []*Event
	ctx *evalContext

	// aggF/aggNull are the aggregate slots handed to compiled expressions
	// via the eval context (slot i = plan spec i).
	aggF    []float64
	aggNull []bool
}

// incItemState is one non-trigger item's part of the plan: a window item
// keeps its state in its window's groups (groupAcc number sub of the groups
// of gw, set by attach), a table item (tab) in the trigger's key-index
// entries.
type incItemState struct {
	idx      int
	filters  []epl.Expr     // pure, item-local conjuncts applied on maintenance
	filtersC []compiledBool // compiled form of filters
	aggIdx   []int          // positions in plan.aggs anchored at this item
	cells    []ringCell     // 1+len(aggIdx): the fold scratch of a table row
	probed   *itemAcc       // evaluation scratch: result of the latest probe

	gw  *groupWin
	sub int
	tab *tableItem
}

// tableItem is the probe of an item over a registered table, whose key
// columns are all equi-joined to the trigger: the trigger's value of the
// first key column — its location — finds the location's block, once per
// table version through the location's key-index entry, and the values of
// the others — hour, day — the run of the block's rows they key. Those rows
// pass through the item's filters and fold into an accumulator, as a
// keep-all window's arrivals of them would have; the entry keeps it for the
// next probe with the same key (tableProbe).
type tableItem struct {
	ref *tableRef
	// src are the trigger slots joined to the key columns, in key order;
	// extra the (column, trigger slot) pairs of the other joins, checked
	// row by row.
	src   []int
	extra [][2]int
	// loc is the key index of the trigger field joined to the first key
	// column, and num the item's number in it (set by attach).
	loc *keyIndex
	num int
	// q is the probe key: the trigger's values of src[1:], then of the
	// extra columns.
	q []keyVal
}

// itemAcc accumulates one join key's events within an item. rows counts
// the events that passed the item's filters; filterBad the events whose
// filter failed, and argBad the passing events an aggregate argument failed
// on, err holding the latest of their errors. Neither kind is in aggs.
type itemAcc struct {
	rows              int
	filterBad, argBad int
	last              *Event // most recently added passing event, the emit representative
	aggs              []aggAcc
	err               error
}

// groupAcc is a window item's state in one group of its window: the
// accumulator of the group's events, whose first aggregate lives here too,
// and its value ring — its memory of what each position of the group folded,
// so that an eviction subtracts that and never reads the event. The ring
// holds 1+k cells per position, k the item's anchored aggregates. Of
// position p's cells, the first holds the position's state; cell 1+j holds
// the float folded in for aggregate j, its mark false when the argument was
// NULL.
type groupAcc struct {
	itemAcc
	cells  []ringCell
	aggBuf [1]aggAcc
}

// aggsIn returns k accumulators, buf's when it has room for them: state
// reached through one object costs one cache miss, not two.
func aggsIn(buf []aggAcc, k int) []aggAcc {
	if k <= len(buf) {
		return buf[:k:k]
	}
	return make([]aggAcc, k)
}

type ringCell struct {
	f     float64
	ok    bool
	state slotState // a position's first cell only
}

// slotState is what an item's window position holds, as folded.
type slotState uint8

const (
	slotEmpty     slotState = iota // nothing, or an event the filters rejected
	slotFolded                     // an event folded into the accumulators
	slotFilterBad                  // an event whose item filter failed
	slotArgBad                     // a passing event an aggregate argument failed on
)

// groupField returns the key field of a window item's view chain, which
// must be std:groupwin(f).win:length(n), or the reason it is not.
func groupField(views []epl.ViewSpec) (string, error) {
	chain := "no view"
	if len(views) > 0 {
		chain = viewChain(views)
	}
	switch {
	case len(views) == 0 || len(views) == 1 && views[0].Namespace == "win" && views[0].Name == "keepall":
		return "", fmt.Errorf("%s keeps every event; a window item is std:groupwin(f).win:length(n)", chain)
	case views[0].Namespace != "std" || views[0].Name != "groupwin":
		return "", fmt.Errorf("%s is not grouped; a window item is std:groupwin(f).win:length(n)", chain)
	case len(views[0].Args) != 1:
		return "", fmt.Errorf("%s has a composite group key; a window item is grouped on one field", chain)
	case len(views) != 2 || views[1].Namespace != "win" || views[1].Name != "length":
		return "", fmt.Errorf("%s does not bound its groups with win:length(n)", chain)
	}
	ref, ok := views[0].Args[0].(*epl.FieldRef)
	if !ok {
		return "", fmt.Errorf("std:groupwin argument %v is not a field", views[0].Args[0])
	}
	return ref.Field, nil
}

// planTrigger builds the plan of a statement of the rule template, or
// returns why the statement is not one: exactly one std:lastevent() item,
// the trigger, on a stream S; window items std:groupwin(f).win:length(n) on
// S, each joined to the trigger by exactly t.f = w.f; table items whose key
// columns are all equi-joined to trigger fields; every equi-join reading the
// trigger; and, in a statement restricted to an owned-key set on S, every
// window grouped on the set's field. See incPlan.
func planTrigger(st *Statement, aliasToIdx map[string]int, aggs []*aggSpec) (*incPlan, error) {
	q := st.Query
	trig := -1
	for i, it := range st.items {
		if v := it.spec.Views; it.table != nil || len(v) != 1 || v[0].Namespace != "std" || v[0].Name != "lastevent" {
			continue
		}
		if trig >= 0 {
			return nil, fmt.Errorf("items %s and %s are both std:lastevent(); a statement has one trigger", st.aliasOrder[trig], it.spec.Alias)
		}
		trig = i
	}
	if trig < 0 {
		return nil, errors.New("no std:lastevent() item triggers the statement")
	}
	trigSpec, trigSchema := st.items[trig].spec, st.items[trig].schema
	group := make([]string, len(st.items)) // a window item's group field
	for i, it := range st.items {
		if i == trig || it.table != nil {
			continue
		}
		if it.spec.Stream != trigSpec.Stream {
			return nil, fmt.Errorf("item %s reads stream %s, not the trigger's stream %s", it.spec.Alias, it.spec.Stream, trigSpec.Stream)
		}
		f, err := groupField(it.spec.Views)
		if err != nil {
			return nil, fmt.Errorf("item %s: %w", it.spec.Alias, err)
		}
		if o := st.owned; o != nil && o.stream == trigSpec.Stream && f != o.field {
			return nil, fmt.Errorf("item %s is grouped on %s, not on the owned field %s", it.spec.Alias, f, o.field)
		}
		group[i] = f
	}

	// Sort the WHERE conjuncts: an equi-join of the trigger with another
	// item, a filter over one item, or a free filter.
	singles := make([][]epl.Expr, len(st.items))
	joins := make([][][2]int, len(st.items)) // per item: (item slot, trigger slot)
	resolved := make(map[fieldNode]bool)     // (item, field) equal to a trigger field
	var free []epl.Expr
	for _, c := range st.conjuncts {
		if l, r, ok := equiConjunct(c, aliasToIdx); ok && l.item != r.item {
			if r.item == trig {
				l, r = r, l
			}
			if l.item != trig {
				return nil, fmt.Errorf("equi-join %s does not read the trigger", c)
			}
			if f := group[r.item]; f != "" && (l.field != f || r.field != f || len(joins[r.item]) > 0) {
				return nil, errGroupJoin(st, trig, r.item, f)
			}
			joins[r.item] = append(joins[r.item], [2]int{st.items[r.item].schema.slotOf(r.field), trigSchema.slotOf(l.field)})
			resolved[fieldNode{r.item, r.field}] = true
			continue
		}
		item, err := singleItemConjunct(c, aliasToIdx)
		if err != nil {
			return nil, err
		}
		if item < 0 {
			free = append(free, c)
		} else {
			singles[item] = append(singles[item], c)
		}
	}
	for i, f := range group {
		if f != "" && len(joins[i]) == 0 {
			return nil, errGroupJoin(st, trig, i, f)
		}
	}

	// Every non-aggregate field reference must resolve through the
	// trigger event, directly or through an equi-join.
	var bad *epl.FieldRef
	check := func(r *epl.FieldRef) {
		idx, known := aliasToIdx[r.Alias]
		if bad == nil && (r.Alias == "" || !known || idx != trig && !resolved[fieldNode{idx, r.Field}]) {
			bad = r
		}
	}
	for _, sel := range q.Select {
		walkNonAgg(sel.Expr, check)
	}
	for _, g := range q.GroupBy {
		if !pureExpr(g) {
			return nil, fmt.Errorf("GROUP BY key %s is impure", g)
		}
		walkNonAgg(g, check)
	}
	walkNonAgg(q.Having, check)
	if bad != nil {
		return nil, errUnresolvable(bad)
	}

	// Anchor every aggregate argument on a single item.
	for _, spec := range aggs {
		if spec.star {
			continue
		}
		anchor := -1
		for _, r := range epl.FieldRefs(spec.call.Args[0]) {
			idx, known := aliasToIdx[r.Alias]
			if r.Alias == "" || !known || (anchor != -1 && anchor != idx) {
				return nil, fmt.Errorf("aggregate argument %s does not read one FROM item through qualified fields", spec.call.Args[0])
			}
			anchor = idx
		}
		if anchor == trig {
			anchor = -1
		}
		spec.anchor = anchor
	}

	// Non-trigger local filters run at maintenance time: must be pure.
	for i, fs := range singles {
		if i == trig {
			continue
		}
		for _, f := range fs {
			if !pureExpr(f) {
				return nil, fmt.Errorf("item filter %s is impure", f)
			}
		}
	}

	p := &incPlan{
		st:          st,
		trigIdx:     trig,
		aggs:        aggs,
		items:       make([]*incItemState, len(st.items)),
		row:         make([]*Event, len(st.items)),
		emitFilters: append(free, singles[trig]...),
	}
	p.ctx = &evalContext{row: p.row, funcs: st.engine.funcs}
	for i := range st.items {
		if i != trig {
			p.items[i] = &incItemState{idx: i, filters: singles[i]}
		}
	}
	for ai, spec := range aggs {
		if spec.anchor >= 0 {
			ip := p.items[spec.anchor]
			spec.slot = len(ip.aggIdx)
			ip.aggIdx = append(ip.aggIdx, ai)
		}
	}
	for i, it := range st.items {
		if ip := p.items[i]; ip != nil {
			ip.cells = make([]ringCell, 1+len(ip.aggIdx))
			if it.table != nil {
				if err := ip.bindTable(it.table, joins[i], trigSchema); err != nil {
					return nil, err
				}
			}
		}
	}
	return p, nil
}

// errGroupJoin is the refusal of window item i, grouped on f, that is not
// joined to the trigger by exactly t.f = w.f.
func errGroupJoin(st *Statement, trig, i int, f string) error {
	return fmt.Errorf("item %[1]s is grouped on %[3]s: it joins the trigger by exactly %[2]s.%[3]s = %[1]s.%[3]s", st.aliasOrder[i], st.aliasOrder[trig], f)
}

// bindTable makes ip, an item over table ref, probe it through joins, its
// (column, trigger slot) equi-joins: every key column must be joined to a
// trigger field, whose schema is trig. A column joined twice is checked row
// by row the second time.
func (ip *incItemState) bindTable(ref *tableRef, joins [][2]int, trig *streamSchema) error {
	t := &tableItem{ref: ref, src: make([]int, ref.nkeys)}
	for k := range t.src {
		t.src[k] = -1
	}
	for _, j := range joins {
		if col := j[0]; col < ref.nkeys && t.src[col] < 0 {
			t.src[col] = j[1]
		} else {
			t.extra = append(t.extra, j)
		}
	}
	for k, sl := range t.src {
		if sl < 0 {
			return fmt.Errorf("key column %q of table %q is not equi-joined to the trigger", ref.schema.names[k], ref.name)
		}
	}
	t.loc = trig.keyIndexOf(trig.names[t.src[0]])
	t.q = make([]keyVal, ref.nkeys-1+len(t.extra))
	ip.tab = t
	return nil
}

// attach binds the plan to the views its statement acquired: a slot in the
// groups of every window item's. A table item takes its number in its key
// index.
func (p *incPlan) attach(st *Statement) {
	for i, ip := range p.items {
		switch {
		case ip == nil:
		case ip.tab != nil:
			ip.tab.num = ip.tab.loc.addTab()
		default:
			ip.gw = st.items[i].view.win.(*groupWin)
			ip.sub = ip.gw.subscribe()
		}
	}
}

// detach releases what attach numbered in the engine's key indexes.
func (p *incPlan) detach() {
	for _, ip := range p.items {
		if ip != nil && ip.tab != nil {
			ip.tab.loc.releaseTab(ip.tab.num)
		}
	}
}

// passes applies an item's maintenance filters to one of its events.
func (p *incPlan) passes(ip *incItemState, ev *Event) (bool, error) {
	if len(ip.filtersC) == 0 {
		return true, nil
	}
	p.row[ip.idx] = ev
	pass, err := true, error(nil)
	for _, f := range ip.filtersC {
		if pass, err = f(p.ctx); err != nil || !pass {
			pass = false
			break
		}
	}
	p.row[ip.idx] = nil
	return pass, err
}

// arg evaluates the argument of an aggregate anchored at ip on one of
// the item's events. present is false for a nil argument, which no
// aggregate counts; a count(expr) argument need not be numeric or finite
// and returns no float.
func (p *incPlan) arg(ip *incItemState, spec *aggSpec, ev *Event) (f float64, present bool, err error) {
	p.row[ip.idx] = ev
	v, err := spec.argC(p.ctx)
	p.row[ip.idx] = nil
	if err != nil || v == nil {
		return 0, false, err
	}
	if spec.countOnly {
		return 0, true, nil
	}
	f, err = argFloat(spec, v)
	return f, err == nil, err
}

// argFloat converts a non-NULL argument of a sum, avg, min, max or stddev:
// a non-numeric or non-finite value cannot be folded. (A NaN or an infinity
// folded into a running sum could never be subtracted out again.)
func argFloat(spec *aggSpec, v Value) (float64, error) {
	f, ok := numeric(v)
	if !ok {
		return 0, fmt.Errorf("cep: aggregate %s over non-numeric value %v", spec.call.Func, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("cep: aggregate %s over non-finite value %v", spec.call.Func, v)
	}
	return f, nil
}

// fold evaluates ip's aggregate arguments on ev into cells and folds them
// into acc. When an argument fails, fold undoes what it folded and returns
// the failure: the event is unfoldable.
func (p *incPlan) fold(ip *incItemState, acc *itemAcc, cells []ringCell, ev *Event) error {
	for j, ai := range ip.aggIdx {
		spec := p.aggs[ai]
		f, present, err := p.arg(ip, spec, ev)
		if err != nil {
			for i := 0; i < j; i++ {
				acc.aggs[i].fold(p.aggs[ip.aggIdx[i]], cells[i], -1)
			}
			return err
		}
		cells[j] = ringCell{f: f, ok: present}
		acc.aggs[j].fold(spec, cells[j], +1)
	}
	return nil
}

// applyDelta folds the event item idx's window just took at position pos
// of the group the event went to into the group's accumulator: retract what
// the group's value ring holds for pos, then add the arrival and record it
// there. A failure to fold stays in the accumulator, where the evaluation
// the arrival triggers finds it.
func (p *incPlan) applyDelta(idx int, ev *Event, pos int) {
	ip := p.items[idx]
	if ip == nil {
		return // the trigger item's single event is read at emit
	}
	k := len(ip.cells)
	ga := &ip.gw.cur.accs[ip.sub]
	if ga.cells == nil {
		ga.cells = make([]ringCell, ip.gw.length*k)
		ga.aggs = aggsIn(ga.aggBuf[:], k-1)
	}
	acc, cells := &ga.itemAcc, ga.cells[pos*k:(pos+1)*k]
	p.retract(ip, acc, cells)
	pass, err := p.passes(ip, ev)
	switch {
	case err != nil:
		cells[0].state, acc.err = slotFilterBad, err
		acc.filterBad++
		return
	case !pass:
		return
	}
	acc.rows++
	acc.last = ev
	if err := p.fold(ip, acc, cells[1:], ev); err != nil {
		cells[0].state, acc.err = slotArgBad, err
		acc.argBad++
		return
	}
	cells[0].state = slotFolded
}

// retract subtracts what a value ring position recorded from acc and
// empties the position.
func (p *incPlan) retract(ip *incItemState, acc *itemAcc, cells []ringCell) {
	switch cells[0].state {
	case slotEmpty:
		return
	case slotFolded:
		acc.rows--
		for j, ai := range ip.aggIdx {
			acc.aggs[j].fold(p.aggs[ai], cells[1+j], -1)
		}
	case slotArgBad:
		acc.rows--
		acc.argBad--
	case slotFilterBad:
		acc.filterBad--
	}
	cells[0].state = slotEmpty
}

// probe finds the accumulator of ip matching trigger event e, nil when no
// row of a table item has e's key. A window item's is that of the group the
// trigger event itself went to: the item reads the trigger's stream, grouped
// on the field it joins.
func (p *incPlan) probe(ip *incItemState, e *Event) *itemAcc {
	if ip.tab != nil {
		return p.probeTable(ip, e)
	}
	return &ip.gw.cur.accs[ip.sub].itemAcc
}

// probeTable returns the accumulator of the rows of ip's table that trigger
// event e keys, nil when the table holds no row of e's location.
func (p *incPlan) probeTable(ip *incItemState, e *Event) *itemAcc {
	t := ip.tab
	cur := t.ref.cur
	for k, sl := range t.src[1:] {
		t.q[k] = keyValOf(e.slots[sl])
	}
	for k, x := range t.extra {
		t.q[len(t.src)-1+k] = keyValOf(e.slots[x[1]])
	}
	tp := e.ents[t.loc.pos].tab(t.num)
	if tp.ver != cur {
		tp.blk, tp.found = cur.blocks[valueKey(e.slots[t.src[0]])]
		tp.ver, tp.ok = cur, false
	}
	if !tp.found {
		return nil
	}
	if !tp.ok || !slices.EqualFunc(tp.q, t.q, keyVal.equal) {
		if tp.acc.aggs == nil {
			tp.acc.aggs = aggsIn(tp.aggBuf[:], len(ip.aggIdx))
		}
		p.foldRun(ip, cur, cur.run(tp.blk, t.q[:len(t.src)-1]), &tp.acc)
		tp.q = append(tp.q[:0], t.q...)
		tp.ok = true
	}
	return &tp.acc
}

// foldRun folds into acc, emptied first, the rows of run that match the
// probe key's extra columns.
func (p *incPlan) foldRun(ip *incItemState, tab *Table, run span, acc *itemAcc) {
	t := ip.tab
	acc.rows, acc.filterBad, acc.argBad, acc.last, acc.err = 0, 0, 0, nil, nil
	for j := range acc.aggs {
		a := &acc.aggs[j]
		a.n, a.sum, a.sumSq = 0, 0, 0
		clear(a.vals)
	}
	w := len(t.src) - 1
rows:
	for r := run.lo; r < run.hi; r++ {
		row := &tab.rows[r]
		for k, x := range t.extra {
			if !keyValOf(row.slots[x[0]]).equal(t.q[w+k]) {
				continue rows
			}
		}
		pass, err := p.passes(ip, row)
		switch {
		case err != nil:
			acc.filterBad++
			acc.err = err
			continue
		case !pass:
			continue
		}
		acc.rows++
		acc.last = row
		if err := p.fold(ip, acc, ip.cells[1:], row); err != nil {
			acc.argBad++
			acc.err = err
		}
	}
}

// evaluate emits the (single) group for trigger event e, which every item
// over its stream has just taken: check the emit filters, probe each item's
// accumulators in FROM order, combine, filter, project.
func (p *incPlan) evaluate(e *Event) ([]Output, error) {
	row := p.row
	for i := range row {
		row[i] = nil
	}
	row[p.trigIdx] = e
	ctx := p.ctx
	ctx.aggF, ctx.aggNull = nil, nil
	for _, f := range p.emitFiltersC {
		pass, err := f(ctx)
		if err != nil {
			return nil, err
		}
		if !pass {
			return nil, nil
		}
	}
	rowsTotal := 1.0
	var argErr error
	for _, ip := range p.items {
		if ip == nil {
			continue
		}
		acc := p.probe(ip, e)
		switch {
		case acc == nil:
			return nil, nil
		case acc.filterBad > 0:
			return nil, acc.err
		case acc.rows == 0:
			return nil, nil
		case acc.argBad > 0 && argErr == nil:
			argErr = acc.err
		}
		ip.probed = acc
		rowsTotal *= float64(acc.rows)
		row[ip.idx] = acc.last
	}
	if argErr != nil {
		return nil, argErr
	}

	// Slot delivery: compiled aggregate references read ctx.aggF directly.
	if p.aggF == nil {
		p.aggF = make([]float64, len(p.aggs))
		p.aggNull = make([]bool, len(p.aggs))
	}
	for i, spec := range p.aggs {
		f, null, err := p.aggFloat(spec, ctx, rowsTotal)
		if err != nil {
			return nil, err
		}
		p.aggF[i], p.aggNull[i] = f, null
	}
	ctx.aggF, ctx.aggNull = p.aggF, p.aggNull

	comp := p.st.comp
	if comp.havingC != nil {
		pass, err := comp.havingC(ctx)
		if err != nil {
			return nil, err
		}
		if !pass {
			return nil, nil
		}
	}
	out, err := p.st.project(ctx, row)
	if err != nil {
		return nil, err
	}
	return []Output{out}, nil
}

// aggFloat computes one aggregate for the trigger-factorized emit row as
// an unboxed (value, isNull) pair. rowsTotal is the join-row count.
func (p *incPlan) aggFloat(spec *aggSpec, ctx *evalContext, rowsTotal float64) (float64, bool, error) {
	switch {
	case spec.star:
		return rowsTotal, false, nil
	case spec.anchor < 0:
		// The argument reads only the trigger event (or constants):
		// every join row carries the same value.
		av, err := spec.argC(ctx)
		if err != nil {
			return 0, false, err
		}
		return constAggFloat(spec, av, rowsTotal)
	default:
		ip := p.items[spec.anchor]
		m := 1.0
		for _, other := range p.items {
			if other != nil && other != ip {
				m *= float64(other.probed.rows)
			}
		}
		a := &ip.probed.aggs[spec.slot]
		if spec.countOnly {
			return float64(a.n) * m, false, nil
		}
		f, null := anchoredAggFloat(spec, a, m)
		return f, null, nil
	}
}

// constAggFloat derives an aggregate whose argument is identical on every
// join row (value av, rowsTotal rows). The bool result marks SQL NULL.
func constAggFloat(spec *aggSpec, av Value, rowsTotal float64) (float64, bool, error) {
	if av == nil {
		if spec.countOnly {
			return 0, false, nil
		}
		return 0, true, nil
	}
	if spec.countOnly {
		return rowsTotal, false, nil
	}
	f, err := argFloat(spec, av)
	if err != nil {
		return 0, false, err
	}
	switch spec.call.Func {
	case "sum":
		return f * rowsTotal, false, nil
	case "avg", "min", "max":
		return f, false, nil
	case "stddev":
		if rowsTotal < 2 {
			return 0, true, nil
		}
		return 0, false, nil
	}
	return 0, false, fmt.Errorf("cep: unknown aggregate %q", spec.call.Func)
}
