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
// One FROM item is a std:lastevent() view whose fields reach — through the
// equi-join equivalence classes of the WHERE clause — every joined field.
// The join then factorizes per item: each other item keeps per-join-key
// accumulators (count, sum, sum of squares, value counts for min/max), and
// an evaluation is a hash probe per item plus O(1) arithmetic. Every
// rendering of the paper's rule template (Listing 1, §4.3.1) has this
// shape, and per-event cost is independent of the window length l. No
// window holds the events it counts: an item records, per position of a
// window that evicts, what the arrival there folded, with the functions
// registered then (its value ring), and the eviction subtracts that. An
// item whose window is std:groupwin(k…) over a bounded view and whose join
// key is those k — Listing 1's bd2 — keeps its accumulators on the window's
// groups (groupAcc): the group the insert found serves the fold and probe.
// An item over a registered table (tableItem) keeps no state at all: its
// probe folds the table rows of the trigger's key, which are few.
//
// A query without that shape is refused at registration, with the reason
// (planIncremental): it is aggregate-free, uses SELECT *, has no trigger
// item, runs an impure function where state is maintained, reads a field
// the trigger cannot resolve, or calls an aggregate with the wrong arity.
//
// An event the plan cannot fold — its item filter errs, or an aggregate
// argument errs, is not numeric or is not finite — stays counted against
// its join key until its window drops it. An evaluation follows the
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

// unionFind tracks equivalence classes of join fields in insertion order.
type unionFind struct {
	parent map[fieldNode]fieldNode
	nodes  []fieldNode
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[fieldNode]fieldNode)}
}

func (u *unionFind) find(n fieldNode) fieldNode {
	p, ok := u.parent[n]
	if !ok {
		u.parent[n] = n
		u.nodes = append(u.nodes, n)
		return n
	}
	if p == n {
		return n
	}
	root := u.find(p)
	u.parent[n] = root
	return root
}

// lookup resolves a node's class without registering new nodes.
func (u *unionFind) lookup(n fieldNode) (fieldNode, bool) {
	if _, ok := u.parent[n]; !ok {
		return fieldNode{}, false
	}
	return u.find(n), true
}

func (u *unionFind) union(a, b fieldNode) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
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

// incPlan is a statement's trigger plan. It factorizes the join around
// one std:lastevent item T whose fields reach every equi-join class: every
// join row contains exactly T's current event, so each other item
// contributes an independent multiset of matches, found by probing per-item
// accumulators keyed by the class fields. Aggregates combine per-item sums
// with multiplicities.
type incPlan struct {
	st *Statement

	trigIdx  int
	trigView *view // the trigger item's, set by attach once the views are acquired
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

// incItemState is one non-trigger item's maintained accumulators.
type incItemState struct {
	idx      int
	filters  []epl.Expr     // pure, item-local conjuncts applied on maintenance
	filtersC []compiledBool // compiled form of filters
	keySlots []int          // this item's event slots forming the accumulator key
	srcSlots []int          // trigger-event slots probing each key slot
	// pairChecks are pairs of trigger-event slots an equi class constrains
	// to be equal among themselves (WHERE t.a = i.x AND t.b = i.x), checked
	// before the class's first item in FROM order is probed.
	pairChecks [][2]int
	aggIdx     []int // positions in plan.aggs anchored at this item
	accs       map[string]*itemAcc
	keyBuf     []byte
	cells      []ringCell // 1+len(aggIdx): the fold scratch of an item over a window that never evicts
	probed     *itemAcc   // evaluation scratch: result of the latest probe

	// The value ring of an item over a window that evicts, set by attach:
	// ring over an ungrouped one (win:length, std:lastevent); over
	// std:groupwin(…) of a bounded view, one per group, in groupAcc number
	// sub of the groups of gw.
	ring ring
	gw   *groupWin
	sub  int
	// A key-aligned item — its window is grouped and keySlots are its group
	// keys, Listing 1's bd.loc = bd2.loc — keeps no accs of its own: a join
	// key's events are exactly a group's, so its accumulator is the
	// groupAcc's. sameKey is true when the trigger item reads the same
	// stream through the same slots, so that the group the arriving event
	// was inserted into is the group the evaluation probes.
	aligned bool
	view    *view
	sameKey bool

	// tab is set for an item over a registered table.
	tab *tableItem
}

// tableItem is the probe of an item over a registered table, whose key
// columns are all equi-joined through the trigger: the trigger's value of
// the first key column — its location — finds the location's block, once
// per table version through the location's key-index entry, and the values
// of the others — hour, day — the run of the block's rows they key. Those
// rows pass through the item's filters and fold into an accumulator, as a
// keep-all window's arrivals of them would have; the entry keeps it for
// the next probe with the same key (tableProbe).
type tableItem struct {
	ref *tableRef
	// src are the trigger slots joined to the key columns, in key order;
	// extra the (column, trigger slot) pairs of joined columns that are
	// not keys, checked row by row.
	src   []int
	extra [][2]int
	// loc is the key index of the trigger field joined to the first key
	// column, and num the item's number in it (set by attach).
	loc *keyIndex
	num int
	// q is the probe key: the trigger's values of src[1:], then of the
	// extra columns. acc and keyBuf serve a probe the entry cannot keep:
	// a trigger whose location is not a string, which has no entry, or a
	// key longer than tableProbe.q.
	q      []keyVal
	keyBuf []byte
	acc    itemAcc
}

// itemAcc accumulates one join key's events within an item. rows counts
// the events that passed the item's filters; filterBad the events whose
// filter failed, and argBad the passing events an aggregate argument failed
// on, err holding the latest of their errors. Neither kind is in aggs. key
// is the accumulator's entry in its item's accs; a key-aligned item's has
// none.
type itemAcc struct {
	rows              int
	filterBad, argBad int
	last              *Event // most recently added passing event, the emit representative
	aggs              []aggAcc
	err               error
	key               string
}

// groupAcc is an item's state in one group of its window: the group's value
// ring and, for a key-aligned item, its accumulator, whose first aggregate
// lives here too.
type groupAcc struct {
	itemAcc
	ring
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

// ring is an item's value ring: its memory of what each position of its
// window folded, so that an eviction subtracts that and never reads the
// event. It holds 1+k cells per position, k the item's anchored
// aggregates. Of position p's cells, the first holds the slot's state;
// cell 1+j holds the float folded in for aggregate j, its mark false when
// the argument was NULL. For an item that keeps accs by join key, to[p] is
// the accumulator the arrival at p went into, nil when it went into none.
type ring struct {
	cells []ringCell
	to    []*itemAcc
}

type ringCell struct {
	f     float64
	ok    bool
	state slotState // a slot's first cell only
}

// slotState is what an item's window position holds, as folded.
type slotState uint8

const (
	slotEmpty     slotState = iota // nothing, or an event the filters rejected
	slotFolded                     // an event folded into the accumulators
	slotFilterBad                  // an event whose item filter failed
	slotArgBad                     // a passing event an aggregate argument failed on
)

func (ip *incItemState) eventKey(ev *Event) []byte {
	ip.keyBuf = appendSlotsKey(ip.keyBuf[:0], ev, ip.keySlots)
	return ip.keyBuf
}

func (ip *incItemState) probeKey(e *Event) []byte {
	ip.keyBuf = appendSlotsKey(ip.keyBuf[:0], e, ip.srcSlots)
	return ip.keyBuf
}

// planTrigger builds the plan around the statement's trigger item, or
// returns why it cannot. See incPlan.
func planTrigger(st *Statement, aliasToIdx map[string]int, aggs []*aggSpec) (*incPlan, error) {
	q := st.Query
	uf := newUnionFind()
	singles := make([][]epl.Expr, len(st.items))
	var free []epl.Expr
	for _, c := range st.conjuncts {
		if l, r, ok := equiConjunct(c, aliasToIdx); ok && l.item != r.item {
			uf.union(l, r)
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

	classes := make(map[fieldNode][]fieldNode)
	var classOrder []fieldNode
	for _, n := range uf.nodes {
		root := uf.find(n)
		if _, ok := classes[root]; !ok {
			classOrder = append(classOrder, root)
		}
		classes[root] = append(classes[root], n)
	}

	// The trigger: a std:lastevent item whose fields reach every class.
	trig := -1
	for i, it := range st.items {
		if v := it.spec.Views; len(v) != 1 || v[0].Namespace != "std" || v[0].Name != "lastevent" {
			continue
		}
		covers := true
		for _, root := range classOrder {
			has := false
			for _, m := range classes[root] {
				if m.item == i {
					has = true
					break
				}
			}
			if !has {
				covers = false
				break
			}
		}
		if covers {
			trig = i
			break
		}
	}
	if trig < 0 {
		return nil, errors.New("no std:lastevent() item reaches every equi-join class")
	}

	// Every non-aggregate field reference must resolve through the
	// trigger event, directly or via its equi class.
	resolvable := func(r *epl.FieldRef) bool {
		idx, known := aliasToIdx[r.Alias]
		if r.Alias == "" || !known {
			return false
		}
		if idx == trig {
			return true
		}
		root, present := uf.lookup(fieldNode{idx, r.Field})
		if !present {
			return false
		}
		for _, m := range classes[root] {
			if m.item == trig {
				return true
			}
		}
		return false
	}
	var bad *epl.FieldRef
	check := func(r *epl.FieldRef) {
		if bad == nil && !resolvable(r) {
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
		st:      st,
		trigIdx: trig,
		aggs:    aggs,
		items:   make([]*incItemState, len(st.items)),
		row:     make([]*Event, len(st.items)),
	}
	p.ctx = &evalContext{row: p.row, funcs: st.engine.funcs}
	p.emitFilters = append(p.emitFilters, free...)
	p.emitFilters = append(p.emitFilters, singles[trig]...)
	for i := range st.items {
		if i == trig {
			continue
		}
		p.items[i] = &incItemState{idx: i, filters: singles[i], accs: make(map[string]*itemAcc)}
	}
	trigSchema := st.items[trig].schema
	for _, root := range classOrder {
		members := classes[root]
		trigSlot, first := -1, len(st.items)
		var pairs [][2]int
		for _, m := range members {
			switch {
			case m.item != trig:
				first = min(first, m.item)
			case trigSlot < 0:
				trigSlot = trigSchema.slotOf(m.field)
			default:
				pairs = append(pairs, [2]int{trigSlot, trigSchema.slotOf(m.field)})
			}
		}
		p.items[first].pairChecks = append(p.items[first].pairChecks, pairs...)
		for _, m := range members {
			if m.item == trig {
				continue
			}
			ip := p.items[m.item]
			ip.keySlots = append(ip.keySlots, st.items[m.item].schema.slotOf(m.field))
			ip.srcSlots = append(ip.srcSlots, trigSlot)
		}
	}
	for ai, spec := range aggs {
		if spec.anchor >= 0 {
			ip := p.items[spec.anchor]
			spec.slot = len(ip.aggIdx)
			ip.aggIdx = append(ip.aggIdx, ai)
		}
	}
	for _, ip := range p.items {
		if ip != nil {
			ip.cells = make([]ringCell, 1+len(ip.aggIdx))
		}
	}
	for i, it := range st.items {
		if it.table != nil {
			if err := p.items[i].bindTable(it.table, trigSchema); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// bindTable makes ip, an item over table ref, probe it: every key column
// must be equi-joined through the trigger, whose schema is trig.
func (ip *incItemState) bindTable(ref *tableRef, trig *streamSchema) error {
	t := &tableItem{ref: ref, src: make([]int, ref.nkeys)}
	for k := range t.src {
		t.src[k] = -1
	}
	for j, col := range ip.keySlots {
		if col < ref.nkeys {
			t.src[col] = ip.srcSlots[j]
		} else {
			t.extra = append(t.extra, [2]int{col, ip.srcSlots[j]})
		}
	}
	for k, sl := range t.src {
		if sl < 0 {
			return fmt.Errorf("key column %q of table %q is not equi-joined through the trigger", ref.schema.names[k], ref.name)
		}
	}
	t.loc = trig.keyIndexOf(trig.names[t.src[0]])
	t.q = make([]keyVal, ref.nkeys-1+len(t.extra))
	t.acc.aggs = make([]aggAcc, len(ip.aggIdx))
	ip.tab = t
	return nil
}

// attach binds the plan to the views its statement acquired: the trigger
// item's window, and for every item over a window that evicts its value
// ring — over a group window, a slot in the window's groups. A table item
// takes its number in its key index.
func (p *incPlan) attach(st *Statement) {
	p.trigView = st.items[p.trigIdx].view
	for i, ip := range p.items {
		switch {
		case ip == nil:
			continue
		case ip.tab != nil:
			ip.tab.num = ip.tab.loc.addTab()
			continue
		}
		v := st.items[i].view
		n := bound(v.win)
		if n == 0 {
			continue
		}
		gw, ok := v.win.(*groupWin)
		if !ok {
			ip.ring = newRing(n, len(ip.cells), true)
			continue
		}
		ip.gw, ip.sub = gw, gw.subscribe()
		ip.aligned = slices.Equal(gw.keys, ip.keySlots)
		ip.view = v
		ip.sameKey = ip.aligned && st.items[i].schema == st.items[p.trigIdx].schema && slices.Equal(ip.srcSlots, ip.keySlots)
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

// newRing makes a value ring of n positions of k cells; keyed is true for
// an item that keeps accs by join key.
func newRing(n, k int, keyed bool) ring {
	r := ring{cells: make([]ringCell, n*k)}
	if keyed {
		r.to = make([]*itemAcc, n)
	}
	return r
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
// into the item's accumulators: retract what the item's value ring holds
// for pos, then add the arrival and record it there. It returns ev's
// failure to fold, if any.
func (p *incPlan) applyDelta(idx int, ev *Event, pos int) error {
	ip := p.items[idx]
	if ip == nil {
		return nil // the trigger item's single event is read at emit
	}
	k := len(ip.cells)
	r, acc := &ip.ring, (*itemAcc)(nil)
	if ip.gw != nil {
		ga := &ip.gw.cur.accs[ip.sub]
		if ga.cells == nil {
			ga.ring = newRing(ip.gw.length, k, !ip.aligned)
		}
		if r = &ga.ring; ip.aligned {
			if acc = &ga.itemAcc; acc.aggs == nil {
				acc.aggs = aggsIn(ga.aggBuf[:], k-1)
			}
		}
	}
	cells := ip.cells
	if r.cells != nil {
		cells = r.cells[pos*k : (pos+1)*k]
		held := acc
		if r.to != nil {
			held, r.to[pos] = r.to[pos], nil
		}
		p.retract(ip, held, cells)
	}
	pass, err := p.passes(ip, ev)
	if err == nil && !pass {
		return nil
	}
	if acc == nil {
		buf := ip.eventKey(ev)
		if acc = ip.accs[string(buf)]; acc == nil {
			acc = &itemAcc{aggs: make([]aggAcc, k-1), key: string(buf)}
			ip.accs[acc.key] = acc
		}
		if r.to != nil {
			r.to[pos] = acc
		}
	}
	if err != nil {
		cells[0].state, acc.err = slotFilterBad, err
		acc.filterBad++
		return err
	}
	acc.rows++
	acc.last = ev
	if err := p.fold(ip, acc, cells[1:], ev); err != nil {
		cells[0].state, acc.err = slotArgBad, err
		acc.argBad++
		return err
	}
	cells[0].state = slotFolded
	return nil
}

// retract subtracts what a value ring position recorded from acc, the
// accumulator its arrival went into, and empties the position. A keyed
// accumulator left holding nothing leaves its item's accs.
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
	if !ip.aligned && acc.rows == 0 && acc.filterBad == 0 {
		delete(ip.accs, acc.key)
	}
}

// probe finds the accumulator of ip matching trigger event e, nil when
// no event of the item has e's key.
func (p *incPlan) probe(ip *incItemState, e *Event) *itemAcc {
	switch {
	case ip.tab != nil:
		return p.probeTable(ip, e)
	case !ip.aligned:
		return ip.accs[string(ip.probeKey(e))]
	}
	g := ip.gw.cur
	if !ip.sameKey || ip.view.lastEv != e {
		g = ip.gw.find(e, ip.srcSlots, ip.sameKey)
	}
	if g == nil {
		return nil
	}
	return &g.accs[ip.sub].itemAcc
}

// probeTable returns the accumulator of the rows of ip's table that trigger
// event e keys, nil when the table holds no row of e's location.
func (p *incPlan) probeTable(ip *incItemState, e *Event) *itemAcc {
	t := ip.tab
	cur := t.ref.cur
	loc := e.slots[t.src[0]]
	for k, sl := range t.src[1:] {
		t.q[k] = keyValOf(e.slots[sl])
	}
	for k, x := range t.extra {
		t.q[len(t.src)-1+k] = keyValOf(e.slots[x[1]])
	}
	keys := t.q[:len(t.src)-1]
	en := e.ents[t.loc.pos]
	if en == nil || len(t.q) > len(tableProbe{}.q) {
		t.keyBuf = appendValueKey(t.keyBuf[:0], loc)
		blk, found := cur.blocks[string(t.keyBuf)]
		if !found {
			return nil
		}
		return p.foldRun(ip, cur, cur.run(blk, keys), &t.acc)
	}
	tp := en.tab(t.num)
	if tp.ver != cur {
		tp.blk, tp.found = cur.blocks[valueKey(loc)]
		tp.ver, tp.ok = cur, false
	}
	if !tp.found {
		return nil
	}
	if q := tp.q[:len(t.q)]; !tp.ok || !slices.EqualFunc(q, t.q, keyVal.equal) {
		if tp.acc.aggs == nil {
			tp.acc.aggs = aggsIn(tp.aggBuf[:], len(ip.aggIdx))
		}
		p.foldRun(ip, cur, cur.run(tp.blk, keys), &tp.acc)
		copy(q, t.q)
		tp.ok = true
	}
	return &tp.acc
}

// foldRun folds into acc, emptied first, the rows of run that match the
// probe key's extra columns.
func (p *incPlan) foldRun(ip *incItemState, tab *Table, run span, acc *itemAcc) *itemAcc {
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
	return acc
}

// evaluate emits the (single) group for the current trigger event: check
// the emit filters, probe each item's accumulators in FROM order, combine,
// filter, project.
func (p *incPlan) evaluate() ([]Output, error) {
	e := p.trigView.lastEv
	if e == nil {
		return nil, nil
	}
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
		for _, pc := range ip.pairChecks {
			if !keyEq(e.slots[pc[0]], e.slots[pc[1]]) {
				return nil, nil
			}
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

// keyEq is equality as join keys see it (appendValueKey): valueEq, except
// that NaN matches NaN.
func keyEq(a, b Value) bool {
	return valueEq(a, b) || valueKey(a) == valueKey(b)
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
