package cep

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"trafficcep/internal/epl"
)

// This file holds the two references the engine is held to, neither of
// which the engine runs.
//
// eval is the reference of the compiled closures: a tree-walking
// interpreter that walks the expression on every call and evaluates both
// operands of a binary operator before it applies the operator.
// FuzzCompiledExprEquivalence, TestCompiledMatchesEval and
// TestRowQueryMatchesEval compare the closures against it: the same value,
// and an error exactly when it errs.
//
// oracle is the reference of the trigger plan: it keeps windows of its own
// and recomputes every evaluation by a nested-loop join over their
// contents, through eval (see oracleStmt.evaluate). The differentials and
// FuzzTriggerPlanMatchesOracle compare the engine against it event by
// event: the same outputs, and an error exactly when it errs.

// oracleContext is eval's environment: the bound join row and the FROM
// aliases naming its positions (a qualified reference is resolved by
// scanning them), the aggregate values keyed by their rendering (nil
// outside an aggregation context), and the scalar function registry.
type oracleContext struct {
	row        []*Event
	aliasOrder []string
	aggs       map[string]Value
	funcs      map[string]ScalarFunc
}

// eval evaluates e in ctx by walking the tree.
func eval(e epl.Expr, ctx *oracleContext) (Value, error) {
	switch x := e.(type) {
	case *epl.NumberLit:
		return x.Value, nil
	case *epl.StringLit:
		return x.Value, nil
	case *epl.BoolLit:
		return x.Value, nil
	case *epl.FieldRef:
		return evalField(x, ctx)
	case *epl.UnaryExpr:
		v, err := eval(x.Expr, ctx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			b, err := truthy(v)
			if err != nil {
				return nil, err
			}
			return !b, nil
		case "-":
			n, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("cep: cannot negate %v", v)
			}
			return -n, nil
		}
		return nil, fmt.Errorf("cep: unknown unary operator %q", x.Op)
	case *epl.BinaryExpr:
		return evalBinary(x, ctx)
	case *epl.CallExpr:
		if epl.AggregateFuncs[x.Func] {
			if ctx.aggs == nil {
				return nil, fmt.Errorf("cep: aggregate %s used outside aggregation context", x.Func)
			}
			v, ok := ctx.aggs[x.String()]
			if !ok {
				return nil, fmt.Errorf("cep: aggregate %s was not pre-computed", x.String())
			}
			return v, nil
		}
		fn, ok := ctx.funcs[x.Func]
		if !ok {
			fn, ok = builtinFuncs[x.Func]
		}
		if !ok {
			return nil, fmt.Errorf("cep: unknown function %q", x.Func)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := eval(a, ctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return fn(args)
	}
	return nil, fmt.Errorf("cep: cannot evaluate %T", e)
}

func evalField(ref *epl.FieldRef, ctx *oracleContext) (Value, error) {
	if ref.Alias != "" {
		for i, alias := range ctx.aliasOrder {
			if alias == ref.Alias {
				if ev := ctx.row[i]; ev != nil {
					return ev.Get(ref.Field), nil
				}
				break
			}
		}
		return nil, fmt.Errorf("cep: alias %q is not bound", ref.Alias)
	}
	// Unqualified: first FROM item whose bound event has the field.
	for _, ev := range ctx.row {
		if ev != nil {
			if v, ok := ev.Fields[ref.Field]; ok {
				return v, nil
			}
		}
	}
	return nil, fmt.Errorf("cep: field %q not found in any bound stream", ref.Field)
}

func evalBinary(x *epl.BinaryExpr, ctx *oracleContext) (Value, error) {
	// Short-circuit logical operators.
	switch x.Op {
	case "AND":
		lb, err := evalBool(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		if !lb {
			return false, nil
		}
		return evalBool(x.Right, ctx)
	case "OR":
		lb, err := evalBool(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		if lb {
			return true, nil
		}
		return evalBool(x.Right, ctx)
	}

	lv, err := eval(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	rv, err := eval(x.Right, ctx)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "=":
		return valueEq(lv, rv), nil
	case "!=":
		return !valueEq(lv, rv), nil
	case "<", "<=", ">", ">=":
		c, err := valueCompare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "+", "-", "*", "/":
		ln, lok := numeric(lv)
		rn, rok := numeric(rv)
		if !lok || !rok {
			if x.Op == "+" {
				// String concatenation.
				ls, lsok := lv.(string)
				rs, rsok := rv.(string)
				if lsok && rsok {
					return ls + rs, nil
				}
			}
			return nil, fmt.Errorf("cep: arithmetic on non-numeric values %v %s %v", lv, x.Op, rv)
		}
		switch x.Op {
		case "+":
			return ln + rn, nil
		case "-":
			return ln - rn, nil
		case "*":
			return ln * rn, nil
		default:
			if rn == 0 {
				return nil, fmt.Errorf("cep: division by zero")
			}
			return ln / rn, nil
		}
	}
	return nil, fmt.Errorf("cep: unknown operator %q", x.Op)
}

func evalBool(e epl.Expr, ctx *oracleContext) (bool, error) {
	v, err := eval(e, ctx)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// oracleWin is an event window of the oracle's own: the events a view
// chain retains, which the engine's windows only count. Events are kept per
// group — one group when the chain has no std:groupwin — oldest first, n
// at most (std:lastevent keeps 1, win:length its n, win:keepall any).
type oracleWin struct {
	keys   []int // the std:groupwin key slots, nil when ungrouped
	n      int   // 0 when the window never evicts
	groups map[string][]*Event
}

// newOracleWin builds the window of a view chain buildWindow accepts.
func newOracleWin(views []epl.ViewSpec, sch *streamSchema) *oracleWin {
	w := &oracleWin{groups: map[string][]*Event{}}
	if len(views) > 0 && views[0].Name == "groupwin" {
		var fields []string
		for _, a := range views[0].Args {
			fields = append(fields, a.(*epl.FieldRef).Field)
		}
		w.keys, views = sch.slotsOf(fields), views[1:]
	}
	if len(views) == 1 {
		switch views[0].Name {
		case "lastevent":
			w.n = 1
		case "length":
			w.n = int(views[0].Args[0].(*epl.NumberLit).Value)
		}
	}
	return w
}

func (w *oracleWin) insert(ev *Event) {
	key := string(appendSlotsKey(nil, ev, w.keys))
	g := append(w.groups[key], ev)
	if w.n > 0 && len(g) > w.n {
		g = g[1:]
	}
	w.groups[key] = g
}

// contents lists the events w retains: oldest first, and groups in key
// order.
func (w *oracleWin) contents() []*Event {
	keys := make([]string, 0, len(w.groups))
	for k := range w.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []*Event
	for _, k := range keys {
		out = append(out, w.groups[k]...)
	}
	return out
}

// appendSlotsKey appends the composite hash key of ev's values at slots —
// appendCompositeKey over those values — to buf.
func appendSlotsKey(buf []byte, ev *Event, slots []int) []byte {
	for i, sl := range slots {
		if i > 0 {
			buf = append(buf, keySep)
		}
		buf = appendValueKey(buf, ev.slots[sl])
	}
	return buf
}

// oracle recomputes the statements of an engine: it takes every event the
// engine takes, into windows of its own, and answers for each statement
// what that event makes it emit, or the error it makes it return.
type oracle struct {
	eng   *Engine
	stmts []*oracleStmt
}

// oracleStmt is one statement as the oracle runs it. It reads the
// statement's query, FROM aliases, owned-key set, trigger item and table
// items off the engine's Statement, and nothing of its plan.
type oracleStmt struct {
	st   *Statement
	wins []*oracleWin
	// order is the nested loop's: the trigger item, then the other items
	// in FROM order.
	order []int
	// keys[i] are the (field of item i, field of the trigger) pairs an
	// event of item i must match on, as join keys match (valueKey): the
	// WHERE equi-joins between items, closed under transitivity.
	keys [][][2]string
	// conds[l] are the WHERE conjuncts the loop checks at level l, once
	// every item they read is bound — all but the equi-joins.
	conds [][]epl.Expr
	// anchored[i] are the aggregate calls whose argument reads item i only.
	anchored [][]*epl.CallExpr
}

func newOracle(eng *Engine) *oracle { return &oracle{eng: eng} }

// add starts recomputing st, with empty windows.
func (o *oracle) add(st *Statement) {
	n := len(st.items)
	os := &oracleStmt{st: st, wins: make([]*oracleWin, n), keys: make([][][2]string, n),
		conds: make([][]epl.Expr, n), anchored: make([][]*epl.CallExpr, n)}
	trig := st.inc.trigIdx
	os.order = append(os.order, trig)
	for i, it := range st.items {
		os.wins[i] = newOracleWin(it.spec.Views, it.schema)
		if i != trig {
			os.order = append(os.order, i)
		}
	}
	level := make(map[string]int, n) // alias → position in order
	for l, i := range os.order {
		level[st.aliasOrder[i]] = l
	}

	// Equi-join classes over (alias, field), by union-find.
	parent := map[[2]string][2]string{}
	var find func(x [2]string) [2]string
	find = func(x [2]string) [2]string {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		parent[x] = x
		return x
	}
	for _, c := range st.conjuncts {
		b, ok := c.(*epl.BinaryExpr)
		if ok && b.Op == "=" {
			l, lok := b.Left.(*epl.FieldRef)
			r, rok := b.Right.(*epl.FieldRef)
			if lok && rok && l.Alias != "" && r.Alias != "" && l.Alias != r.Alias {
				parent[find([2]string{l.Alias, l.Field})] = find([2]string{r.Alias, r.Field})
				continue
			}
		}
		at := 0
		for _, r := range epl.FieldRefs(c) {
			at = max(at, level[r.Alias])
		}
		os.conds[at] = append(os.conds[at], c)
	}
	tAlias := st.aliasOrder[trig]
	for x := range parent {
		for y := range parent {
			if x[0] != tAlias && y[0] == tAlias && find(x) == find(y) {
				i := slices.Index(st.aliasOrder, x[0])
				os.keys[i] = append(os.keys[i], [2]string{x[1], y[1]})
			}
		}
	}
	for _, call := range st.aggCalls {
		if call.Star {
			continue
		}
		refs := epl.FieldRefs(call.Args[0])
		if len(refs) > 0 && refs[0].Alias != tAlias && !slices.ContainsFunc(refs, func(r *epl.FieldRef) bool { return r.Alias != refs[0].Alias }) {
			i := slices.Index(st.aliasOrder, refs[0].Alias)
			os.anchored[i] = append(os.anchored[i], call)
		}
	}
	o.stmts = append(o.stmts, os)
}

// remove stops recomputing the statement named name.
func (o *oracle) remove(name string) {
	o.stmts = slices.DeleteFunc(o.stmts, func(os *oracleStmt) bool { return os.st.Name == name })
}

// send delivers one event: per statement name, the outputs the event makes
// the statement emit (their fields) and the error it makes it return.
func (o *oracle) send(stream string, fields map[string]Value) (map[string][]map[string]Value, map[string]error) {
	ev := o.eng.bind(NewEvent(stream, time.Time{}, fields))
	outs, errs := map[string][]map[string]Value{}, map[string]error{}
	for _, os := range o.stmts {
		st := os.st
		if w := st.owned; w != nil && w.stream == stream {
			if key, ok := fields[w.field].(string); !ok || w.entries[key] == nil || !w.entries[key].owned {
				continue
			}
		}
		unidirectional := slices.ContainsFunc(st.Query.From, func(f epl.FromItem) bool { return f.Unidirectional })
		triggered := false
		var arrival error
		for i, it := range st.items {
			if it.table != nil || it.spec.Stream != stream {
				continue
			}
			os.wins[i].insert(ev)
			if !unidirectional || it.spec.Unidirectional {
				triggered = true
			}
			if err := os.unfoldable(i, ev); err != nil && arrival == nil {
				arrival = err
			}
		}
		if !triggered {
			if arrival != nil {
				errs[st.Name] = arrival
			}
			continue
		}
		out, err := os.evaluate()
		if err != nil {
			errs[st.Name] = err
		} else if out != nil {
			outs[st.Name] = out
		}
	}
	return outs, errs
}

func (os *oracleStmt) ctx(row []*Event) *oracleContext {
	return &oracleContext{row: row, aliasOrder: os.st.aliasOrder, funcs: os.st.engine.funcs}
}

// unfoldable reports why an event of item i cannot be folded, nil when it
// can: a WHERE conjunct over the item alone fails on it, or it passes them
// and an aggregate argument over the item alone fails, is not numeric or is
// not finite. The trigger item's events are never folded.
func (os *oracleStmt) unfoldable(i int, ev *Event) error {
	if i == os.st.inc.trigIdx {
		return nil
	}
	row := make([]*Event, len(os.wins))
	row[i] = ev
	ctx := os.ctx(row)
	for _, c := range os.conds[slices.Index(os.order, i)] {
		if pass, err := evalBool(c, ctx); err != nil || !pass {
			return err
		}
	}
	for _, call := range os.anchored[i] {
		if _, err := oracleAggregate(call, [][]*Event{row}, ctx); err != nil {
			return err
		}
	}
	return nil
}

// evaluate recomputes the statement on the windows as they are: a nested
// loop over their contents, the trigger item outermost, then the other
// items in FROM order. An event enters the loop when it matches the
// trigger event on every equi-join class; the conjuncts of its level are
// evaluated on it only then, so a failing one fails the evaluation
// exactly when it sits in a key the trigger matches, and a level with no
// passing event ends the evaluation without output. Once the loop produced
// rows, the aggregates are folded over them (a failing argument fails the
// evaluation), and HAVING and SELECT read the last row.
//
// Every row carries the trigger's event, and GROUP BY may only read fields
// the trigger resolves, so the rows form one group: GROUP BY is not
// evaluated.
func (os *oracleStmt) evaluate() ([]map[string]Value, error) {
	q := os.st.Query
	row := make([]*Event, len(os.wins))
	ctx := os.ctx(row)
	trig := os.order[0]
	var rows [][]*Event
	var loop func(l int) error
	loop = func(l int) error {
		if l == len(os.order) {
			rows = append(rows, slices.Clone(row))
			return nil
		}
		i := os.order[l]
		contents := os.wins[i].contents()
		if t := os.st.items[i].table; t != nil {
			// A table item's window is its table's current rows: a
			// keep-all window fed them, but in block order. Only the
			// rows of one key match, and those keep table order.
			contents = contents[:0]
			for r := range t.cur.rows {
				contents = append(contents, &t.cur.rows[r])
			}
		}
	next:
		for _, ev := range contents {
			for _, k := range os.keys[i] {
				if valueKey(ev.Get(k[0])) != valueKey(row[trig].Get(k[1])) {
					continue next
				}
			}
			row[i] = ev
			for _, c := range os.conds[l] {
				pass, err := evalBool(c, ctx)
				if err != nil {
					return err
				}
				if !pass {
					continue next
				}
			}
			if err := loop(l + 1); err != nil {
				return err
			}
		}
		row[i] = nil
		return nil
	}
	if err := loop(0); err != nil || len(rows) == 0 {
		return nil, err
	}
	ctx.aggs = make(map[string]Value, len(os.st.aggCalls))
	for _, call := range os.st.aggCalls {
		v, err := oracleAggregate(call, rows, ctx)
		if err != nil {
			return nil, err
		}
		ctx.aggs[call.String()] = v
	}
	ctx.row = rows[len(rows)-1]
	if q.Having != nil {
		if pass, err := evalBool(q.Having, ctx); err != nil || !pass {
			return nil, err
		}
	}
	out := make(map[string]Value, len(q.Select))
	for _, s := range q.Select {
		v, err := eval(s.Expr, ctx)
		if err != nil {
			return nil, err
		}
		name := s.Alias
		if name == "" {
			name = s.Expr.String()
		}
		out[name] = v
	}
	return []map[string]Value{out}, nil
}

// oracleAggregate folds one aggregate over rows; a nil result is SQL NULL.
// NULL arguments are skipped, count(expr) counts any other value, and the
// other aggregates fail on a non-numeric or non-finite one.
func oracleAggregate(call *epl.CallExpr, rows [][]*Event, ctx *oracleContext) (Value, error) {
	if call.Star {
		return float64(len(rows)), nil
	}
	var n int
	var sum, sumSq, lo, hi float64
	for _, row := range rows {
		ctx.row = row
		v, err := eval(call.Args[0], ctx)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		if call.Func == "count" {
			n++
			continue
		}
		f, ok := numeric(v)
		if !ok || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("cep: aggregate %s over %v", call.Func, v)
		}
		if n == 0 || f < lo {
			lo = f
		}
		if n == 0 || f > hi {
			hi = f
		}
		n++
		sum += f
		sumSq += f * f
	}
	switch {
	case call.Func == "count":
		return float64(n), nil
	case n == 0, call.Func == "stddev" && n < 2:
		return nil, nil
	}
	switch call.Func {
	case "sum":
		return sum, nil
	case "avg":
		return sum / float64(n), nil
	case "min":
		return lo, nil
	case "max":
		return hi, nil
	case "stddev":
		mean := sum / float64(n)
		return math.Sqrt(max(0, (sumSq-float64(n)*mean*mean)/float64(n-1))), nil
	}
	return nil, fmt.Errorf("cep: unknown aggregate %q", call.Func)
}
