package cep

import (
	"fmt"
	"math"
	"slices"

	"trafficcep/internal/epl"
)

// This file implements incremental statement evaluation: instead of
// re-enumerating the full window join and recomputing every aggregate on
// each arrival, the engine maintains running aggregate state from each
// window's delta: the arriving event, and the one it evicted, if any.
//
// There is one incremental plan, trigger factorization (incPlan): when one
// FROM item is a std:lastevent() view whose fields reach — through the
// equi-join equivalence classes of the WHERE clause — every joined field,
// the join factorizes per item: each other item keeps per-join-key
// accumulators (count, sum, sum of squares, value counts for min/max), and
// an evaluation is a hash probe per item plus O(1) arithmetic. This covers
// Listing 1 and the paper's threshold-rule family — every rendering of the
// rule template — making per-event cost independent of the window length
// l. An item whose window is std:groupwin(k…).win:length(n) and whose join
// key is those k — Listing 1's bd2 — keeps its accumulators on the window's
// groups (groupAcc): the group the insert found serves the fold and the
// probe, and eviction subtracts from a value ring instead of reading the
// evicted event.
//
// Every other query — no such trigger item, or a feature the plan cannot
// prove correct: SELECT *, impure functions inside maintained expressions,
// field references that do not resolve through the trigger event — is
// evaluated by full recompute, counted in the statement's
// RecomputeFallbacks metric.
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
	// attached by compileIncremental after planning.
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

// singleItemConjunct reports the one item a conjunct's references cover
// (-1 when it has no field references at all).
func singleItemConjunct(c epl.Expr, aliasToIdx map[string]int) (int, bool) {
	item := -1
	for _, r := range epl.FieldRefs(c) {
		if r.Alias == "" {
			return 0, false
		}
		idx, known := aliasToIdx[r.Alias]
		if !known {
			return 0, false
		}
		if item == -1 {
			item = idx
		} else if item != idx {
			return 0, false
		}
	}
	return item, true
}

// planIncremental analyzes a compiled statement and arms the incremental
// plan when it is provably equivalent to recompute. It never fails
// compilation: an ineligible query just returns nil.
func planIncremental(st *Statement, aliasToIdx map[string]int) *incPlan {
	q := st.Query
	if !st.hasAgg && len(q.GroupBy) == 0 {
		return nil // per-row output queries gain nothing from group state
	}
	for _, s := range q.Select {
		if s.Star {
			return nil
		}
	}
	aggs, ok := planAggSpecs(st)
	if !ok {
		return nil
	}
	return planTrigger(st, aliasToIdx, aggs)
}

// planAggSpecs makes one spec per aggregate slot and verifies each can be
// maintained: known shape, pure argument.
func planAggSpecs(st *Statement) ([]*aggSpec, bool) {
	var specs []*aggSpec
	for _, call := range st.aggCalls {
		s := &aggSpec{call: call, anchor: -1}
		if call.Star {
			if call.Func != "count" {
				return nil, false
			}
			s.star = true
			specs = append(specs, s)
			continue
		}
		if len(call.Args) != 1 {
			return nil, false // recompute surfaces the arity error
		}
		if !pureExpr(call.Args[0]) {
			return nil, false
		}
		s.countOnly = call.Func == "count"
		s.track = call.Func == "min" || call.Func == "max"
		specs = append(specs, s)
	}
	return specs, true
}

// incPlan is a statement's incremental-evaluation runtime. It factorizes
// the join around one std:lastevent item T whose fields reach every
// equi-join class: every join row contains exactly T's current event, so
// each other item contributes an independent multiset of matches, found by
// probing per-item accumulators keyed by the class fields. Aggregates
// combine per-item sums with multiplicities. broken flips when maintenance
// fails; the statement then falls back to recompute permanently.
type incPlan struct {
	st     *Statement
	broken bool

	trigIdx int
	trigWin *lastEventWin // set by attach, once the views are acquired
	// pairChecks are pairs of trigger-event slots an equi class constrains
	// to be equal among themselves (WHERE t.a = i.x AND t.b = i.x).
	pairChecks [][2]int
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

// disable stops maintenance for good; evaluate() then recomputes. A broken
// plan ran with join-index maintenance skipped (indexesIdle), so the
// indexes the recompute path is about to probe must be rebuilt from the
// windows' contents first: process does, once every item took the event
// that broke the plan.
func (p *incPlan) disable() { p.broken = true }

// IncrementalStrategy reports which incremental plan the statement runs:
// "trigger" (factorized per-item accumulators around a lastevent item),
// "broken" (maintenance failed, recomputing), or "" (recompute: the query
// is ineligible).
func (st *Statement) IncrementalStrategy() string {
	switch {
	case st.inc == nil:
		return ""
	case st.inc.broken:
		return "broken"
	}
	return "trigger"
}

// applyDelta folds one FROM item's window delta — ev arrived, evicted (nil
// when none) left — into the item's accumulators.
func (p *incPlan) applyDelta(idx int, ev, evicted *Event) error {
	ip := p.items[idx]
	if ip == nil {
		return nil // the trigger item's single event is read at emit
	}
	// p.ctx is shared with evaluate: drop any aggregate bindings left from a
	// prior evaluation so a (mis-typed) aggregate reference in a filter or
	// aggregate argument errors exactly like the recompute path instead of
	// silently reading stale slots.
	p.ctx.aggF, p.ctx.aggNull = nil, nil
	if ip.gw != nil {
		// The group's value ring retracts what the arriving event
		// overwrites; the evicted event itself is not needed.
		return p.foldGroup(ip, ev)
	}
	if evicted != nil {
		if err := p.apply(ip, evicted, -1); err != nil {
			return err
		}
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
	aggIdx   []int          // positions in plan.aggs anchored at this item
	accs     map[string]*itemAcc
	keyBuf   []byte
	probed   *itemAcc // evaluation scratch: result of the latest probe

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

// itemAcc accumulates one join key's matching events within an item.
type itemAcc struct {
	rows int
	last *Event // most recently added match, the emit representative
	aggs []aggAcc
}

// groupAcc is the itemAcc of a key-aligned item for one group, plus the
// value ring that lets the group retract from its own memory: 1+k cells per
// slot of the group's length window, k the item's anchored aggregates. Of
// slot p's cells, the first marks whether the event in the slot passed the
// item's maintenance filters (and so counts in rows); cell 1+j holds the
// float folded in for aggregate j, its mark false — absent — when the
// argument was nil. An arriving event overwrites slot p; what the slot held
// is subtracted from the ring, and the evicted event, cold by then, is
// never read.
type groupAcc struct {
	itemAcc
	ring []ringCell
}

type ringCell struct {
	f  float64
	ok bool
}

func (ip *incItemState) eventKey(ev *Event) []byte {
	ip.keyBuf = appendSlotsKey(ip.keyBuf[:0], ev, ip.keySlots)
	return ip.keyBuf
}

func (ip *incItemState) probeKey(e *Event) []byte {
	ip.keyBuf = appendSlotsKey(ip.keyBuf[:0], e, ip.srcSlots)
	return ip.keyBuf
}

// planTrigger builds the plan when the statement has a trigger item. See
// incPlan.
func planTrigger(st *Statement, aliasToIdx map[string]int, aggs []*aggSpec) *incPlan {
	q := st.Query
	uf := newUnionFind()
	singles := make([][]epl.Expr, len(st.items))
	var free []epl.Expr
	for _, c := range st.conjuncts {
		if l, r, ok := equiConjunct(c, aliasToIdx); ok && l.item != r.item {
			uf.union(l, r)
			continue
		}
		item, ok := singleItemConjunct(c, aliasToIdx)
		if !ok {
			return nil
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
		return nil
	}

	// Every non-aggregate field reference must resolve through the
	// trigger event, directly or via its equi class.
	resolvable := func(r *epl.FieldRef) bool {
		if r.Alias == "" {
			return false
		}
		idx, known := aliasToIdx[r.Alias]
		if !known {
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
	ok := true
	check := func(r *epl.FieldRef) {
		if !resolvable(r) {
			ok = false
		}
	}
	for _, sel := range q.Select {
		walkNonAgg(sel.Expr, check)
	}
	for _, g := range q.GroupBy {
		if !pureExpr(g) {
			return nil
		}
		walkNonAgg(g, check)
	}
	walkNonAgg(q.Having, check)
	if !ok {
		return nil
	}

	// Anchor every aggregate argument on a single item.
	for _, spec := range aggs {
		spec.anchor = -1
		if spec.star {
			continue
		}
		anchor := -1
		for _, r := range epl.FieldRefs(spec.call.Args[0]) {
			if r.Alias == "" {
				return nil
			}
			idx, known := aliasToIdx[r.Alias]
			if !known {
				return nil
			}
			if anchor == -1 {
				anchor = idx
			} else if anchor != idx {
				return nil
			}
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
				return nil
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
		trigSlot := -1
		for _, m := range members {
			if m.item != trig {
				continue
			}
			if trigSlot < 0 {
				trigSlot = trigSchema.slotOf(m.field)
			} else {
				p.pairChecks = append(p.pairChecks, [2]int{trigSlot, trigSchema.slotOf(m.field)})
			}
		}
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
	return p
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
// aggregate counts; a count(expr) argument need not be numeric and returns
// no float.
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
	f, ok := numeric(v)
	if !ok {
		return 0, false, fmt.Errorf("cep: aggregate %s over non-numeric value %v", spec.call.Func, v)
	}
	return f, true, nil
}

// apply folds one arriving or evicted event into the accumulators of an item
// that keeps them by join key (every item that is not key-aligned).
func (p *incPlan) apply(ip *incItemState, ev *Event, sign int) error {
	if pass, err := p.passes(ip, ev); err != nil || !pass {
		return err
	}
	buf := ip.eventKey(ev)
	acc, ok := ip.accs[string(buf)]
	if !ok {
		if sign < 0 {
			return fmt.Errorf("cep: incremental state inconsistency: retraction for unknown join key")
		}
		acc = &itemAcc{aggs: make([]aggAcc, len(ip.aggIdx))}
		ip.accs[string(buf)] = acc
	}
	acc.rows += sign
	if acc.rows < 0 {
		return fmt.Errorf("cep: incremental state inconsistency: negative join-key cardinality")
	}
	if sign > 0 {
		acc.last = ev
	}
	for j, ai := range ip.aggIdx {
		spec := p.aggs[ai]
		f, present, err := p.arg(ip, spec, ev)
		if err != nil {
			return err
		}
		switch {
		case !present:
		case spec.countOnly:
			acc.aggs[j].n += sign
		case sign > 0:
			acc.aggs[j].add(f, spec.track)
		default:
			acc.aggs[j].remove(f, spec.track)
		}
	}
	if acc.rows == 0 {
		delete(ip.accs, string(buf))
	}
	return nil
}

// foldGroup folds the event its window just took into a key-aligned
// item's accumulator on the event's group: retract what the window slot held
// from the value ring, then fold the arrival in and record it there.
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
	in, held := &cells[0].ok, cells[1:]
	if *in {
		*in = false
		acc.rows--
		for j, ai := range ip.aggIdx {
			spec := p.aggs[ai]
			switch {
			case !held[j].ok:
			case spec.countOnly:
				acc.aggs[j].n--
			default:
				acc.aggs[j].remove(held[j].f, spec.track)
			}
		}
	}
	if pass, err := p.passes(ip, ev); err != nil || !pass {
		return err
	}
	*in = true
	acc.rows++
	acc.last = ev
	for j, ai := range ip.aggIdx {
		spec := p.aggs[ai]
		f, present, err := p.arg(ip, spec, ev)
		if err != nil {
			return err
		}
		held[j] = ringCell{f, present}
		switch {
		case !present:
		case spec.countOnly:
			acc.aggs[j].n++
		default:
			acc.aggs[j].add(f, spec.track)
		}
	}
	return nil
}

// probe finds the accumulator of ip matching trigger event e, nil when
// no event of the item does.
func (ip *incItemState) probe(e *Event) *itemAcc {
	if ip.gw == nil {
		return ip.accs[string(ip.probeKey(e))]
	}
	g := ip.gw.cur
	if !ip.sameKey || ip.view.lastEv != e {
		g = ip.gw.groups[string(ip.probeKey(e))]
	}
	if g == nil || g.accs[ip.sub].rows == 0 {
		return nil
	}
	return &g.accs[ip.sub].itemAcc
}

// evaluate emits the (single) group for the current trigger event:
// probe each item's accumulators, combine, filter, project.
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
	for _, pc := range p.pairChecks {
		if !valueEq(e.slots[pc[0]], e.slots[pc[1]]) {
			return nil, nil
		}
	}
	rowsTotal := 1.0
	for _, ip := range p.items {
		if ip == nil {
			continue
		}
		acc := ip.probe(e)
		if acc == nil {
			return nil, nil
		}
		ip.probed = acc
		rowsTotal *= float64(acc.rows)
		row[ip.idx] = acc.last
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
	f, ok := numeric(av)
	if !ok {
		return 0, false, fmt.Errorf("cep: aggregate %s over non-numeric value %v", spec.call.Func, av)
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
