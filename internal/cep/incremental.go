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
// each window's delta — the arriving event, and the one it evicted, if any.
//
// One FROM item is a std:lastevent() view whose fields reach — through the
// equi-join equivalence classes of the WHERE clause — every joined field.
// The join then factorizes per item: each other item keeps per-join-key
// accumulators (count, sum, sum of squares, value counts for min/max), and
// an evaluation is a hash probe per item plus O(1) arithmetic. Every
// rendering of the paper's rule template (Listing 1, §4.3.1) has this
// shape, and per-event cost is independent of the window length l. An item
// whose window is std:groupwin(k…).win:length(n) and whose join key is
// those k — Listing 1's bd2 — keeps its accumulators on the window's groups
// (groupAcc): the group the insert found serves the fold and the probe, and
// eviction subtracts from a value ring instead of reading the evicted event.
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

	trigIdx int
	trigWin *lastEventWin // set by attach, once the views are acquired
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

// applyDelta folds one FROM item's window delta — ev arrived, evicted (nil
// when none) left — into the item's accumulators. It returns ev's failure
// to fold, if any; retracting an event that failed is silent, because it
// failed on arrival.
func (p *incPlan) applyDelta(idx int, ev, evicted *Event) error {
	ip := p.items[idx]
	if ip == nil {
		return nil // the trigger item's single event is read at emit
	}
	if ip.gw != nil {
		// The group's value ring retracts what the arriving event
		// overwrites; the evicted event itself is not needed.
		return p.foldGroup(ip, ev)
	}
	if evicted != nil {
		p.apply(ip, evicted, -1)
	}
	return p.apply(ip, ev, +1)
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
	cells      []ringCell // fold scratch of a keyed item, one per aggIdx
	probed     *itemAcc   // evaluation scratch: result of the latest probe

	// A key-aligned item — its window is std:groupwin(k…).win:length(n) and
	// keySlots are those same k, Listing 1's bd.loc = bd2.loc — keeps no
	// accs of its own: a join key's events are exactly a group's, so its
	// accumulator is groupAcc number sub of that group, in the window gw of
	// the view. sameKey is true when the trigger item reads the same stream
	// through the same slots, so that the group the arriving event was
	// inserted into is the group the evaluation probes. Set by attach.
	gw      *groupWin
	view    *view
	sub     int
	sameKey bool
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

// groupAcc is the itemAcc of a key-aligned item for one group, plus the
// value ring that lets the group retract from its own memory: 1+k cells per
// slot of the group's length window, k the item's anchored aggregates. Of
// slot p's cells, the first holds the slot's state; cell 1+j holds the
// float folded in for aggregate j, its mark false when the argument was
// NULL. An arriving event overwrites slot p; what the slot held is
// subtracted, and the evicted event, cold by then, is never read.
type groupAcc struct {
	itemAcc
	ring []ringCell
}

type ringCell struct {
	f     float64
	ok    bool
	state slotState // a slot's first cell only
}

// slotState is what a key-aligned item's window slot holds, as folded.
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
			ip.cells = make([]ringCell, len(ip.aggIdx))
		}
	}
	return p, nil
}

// attach binds the plan to the views its statement acquired: the trigger
// item's window, and for every key-aligned item (see incItemState) an
// accumulator slot in the groups of its window.
func (p *incPlan) attach(st *Statement) {
	p.trigWin = st.items[p.trigIdx].view.win.(*lastEventWin)
	for i, ip := range p.items {
		if ip == nil {
			continue
		}
		v := st.items[i].view
		gw, ok := v.win.(*groupWin)
		if !ok || gw.length == 0 || !slices.Equal(gw.keys, ip.keySlots) {
			continue
		}
		ip.gw, ip.view, ip.sub = gw, v, gw.subscribe()
		ip.sameKey = st.items[i].schema == st.items[p.trigIdx].schema && slices.Equal(ip.srcSlots, ip.keySlots)
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
// into acc with sign. An arrival folds in one pass and, when an argument
// fails, undoes what it folded; a retraction evaluates every argument
// before it subtracts one, since subtracting a value its arrival never
// folded cannot be undone. Either way a failure leaves acc as it was and is
// returned: the event is unfoldable.
func (p *incPlan) fold(ip *incItemState, acc *itemAcc, cells []ringCell, ev *Event, sign int) error {
	for j, ai := range ip.aggIdx {
		spec := p.aggs[ai]
		f, present, err := p.arg(ip, spec, ev)
		if err != nil {
			for i := 0; i < j && sign > 0; i++ {
				acc.aggs[i].fold(p.aggs[ip.aggIdx[i]], cells[i], -1)
			}
			return err
		}
		cells[j] = ringCell{f: f, ok: present}
		if sign > 0 {
			acc.aggs[j].fold(spec, cells[j], +1)
		}
	}
	if sign < 0 {
		for j, ai := range ip.aggIdx {
			acc.aggs[j].fold(p.aggs[ai], cells[j], -1)
		}
	}
	return nil
}

// apply adds (sign +1) or retracts (sign -1) one event in the accumulators
// of an item that keeps them by join key (every item that is not
// key-aligned). It returns an added event's failure to fold; a retraction
// re-evaluates the event, fails where its arrival failed and undoes the
// same count, silently.
func (p *incPlan) apply(ip *incItemState, ev *Event, sign int) error {
	pass, err := p.passes(ip, ev)
	if err == nil && !pass {
		return nil
	}
	buf := ip.eventKey(ev)
	acc := ip.accs[string(buf)]
	if acc == nil {
		if sign < 0 {
			// Only a function registered over a built-in after the
			// statement can make a retraction miss what its arrival added.
			return nil
		}
		acc = &itemAcc{aggs: make([]aggAcc, len(ip.aggIdx))}
		ip.accs[string(buf)] = acc
	}
	if err != nil {
		acc.filterBad += sign
	} else {
		acc.rows += sign
		if sign > 0 {
			acc.last = ev
		}
		if err = p.fold(ip, acc, ip.cells, ev, sign); err != nil {
			acc.argBad += sign
		}
	}
	if acc.rows == 0 && acc.filterBad == 0 {
		delete(ip.accs, string(buf))
	}
	if sign < 0 || err == nil {
		return nil
	}
	acc.err = err
	return err
}

// foldGroup folds the event its window just took into a key-aligned item's
// accumulator on the event's group: retract what the window slot held, then
// add the arrival and record it in the slot.
func (p *incPlan) foldGroup(ip *incItemState, ev *Event) error {
	g := ip.gw.cur
	pos := g.win.(*lengthWin).pos
	acc := &g.accs[ip.sub]
	k := len(ip.aggIdx)
	if acc.ring == nil {
		acc.aggs = make([]aggAcc, k)
		acc.ring = make([]ringCell, ip.gw.length*(1+k))
	}
	cells := acc.ring[pos*(1+k) : (pos+1)*(1+k)]
	state, held := &cells[0].state, cells[1:]
	switch *state {
	case slotFolded:
		acc.rows--
		for j, ai := range ip.aggIdx {
			acc.aggs[j].fold(p.aggs[ai], held[j], -1)
		}
	case slotArgBad:
		acc.rows--
		acc.argBad--
	case slotFilterBad:
		acc.filterBad--
	}
	*state = slotEmpty
	pass, err := p.passes(ip, ev)
	if err != nil {
		*state, acc.err = slotFilterBad, err
		acc.filterBad++
		return err
	}
	if !pass {
		return nil
	}
	acc.rows++
	acc.last = ev
	if err := p.fold(ip, &acc.itemAcc, held, ev, +1); err != nil {
		*state, acc.err = slotArgBad, err
		acc.argBad++
		return err
	}
	*state = slotFolded
	return nil
}

// probe finds the accumulator of ip matching trigger event e, nil when
// no event of the item has e's key.
func (ip *incItemState) probe(e *Event) *itemAcc {
	if ip.gw == nil {
		return ip.accs[string(ip.probeKey(e))]
	}
	g := ip.gw.cur
	if !ip.sameKey || ip.view.lastEv != e {
		g = ip.gw.groups[string(ip.probeKey(e))]
	}
	if g == nil {
		return nil
	}
	return &g.accs[ip.sub].itemAcc
}

// evaluate emits the (single) group for the current trigger event: check
// the emit filters, probe each item's accumulators in FROM order, combine,
// filter, project.
func (p *incPlan) evaluate() ([]Output, error) {
	e := p.trigWin.ev
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
		acc := ip.probe(e)
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
