package cep

import (
	"trafficcep/internal/epl"
)

// RowQuery is a compiled single-table query — a WHERE predicate and a list
// of expressions — evaluated one row of named values at a time, outside any
// statement. This is the evaluation primitive the sqlstore SELECT engine
// shares with the CEP engine: the same closures, compiled once per query.
// Unqualified field references and references qualified with the table's
// alias both resolve against the row; aggregates fail.
//
// One event and one context serve every row, and scalar calls reuse
// per-call-site argument scratch, so a RowQuery is not safe for concurrent
// use.
type RowQuery struct {
	schema *streamSchema
	ev     Event
	ctx    evalContext
	where  compiledBool // nil without a WHERE
	exprs  []compiledExpr
}

// CompileRowQuery compiles where (nil for none) and exprs over the rows of
// a table referenced as alias. Scalar calls reach the built-in functions.
func CompileRowQuery(alias string, where epl.Expr, exprs []epl.Expr) *RowQuery {
	bind := make(map[*epl.FieldRef]int)
	for _, e := range append([]epl.Expr{where}, exprs...) {
		epl.WalkExpr(e, func(x epl.Expr) {
			if r, ok := x.(*epl.FieldRef); ok && r.Alias != "" && r.Alias == alias {
				bind[r] = 0
			}
		})
	}
	q := &RowQuery{schema: newStreamSchema()}
	c := &exprCompiler{bind: bind, schemas: []*streamSchema{q.schema}}
	q.where = c.boolean(where)
	q.exprs = c.values(exprs)
	q.ev.slots = make([]Value, len(q.schema.names))
	q.ctx = evalContext{row: []*Event{&q.ev}}
	return q
}

// Match makes row the current row and reports whether it passes WHERE
// (every row does without one). The row is read, not copied.
func (q *RowQuery) Match(row map[string]Value) (bool, error) {
	q.ev.Fields = row
	for i, name := range q.schema.names {
		q.ev.slots[i] = row[name]
	}
	if q.where == nil {
		return true, nil
	}
	return q.where(&q.ctx)
}

// Value evaluates the i-th expression over the current row.
func (q *RowQuery) Value(i int) (Value, error) { return q.exprs[i](&q.ctx) }

// AppendKey appends the composite hash key of vals to buf: numerically
// equal values of different Go types key alike, and two different lists of
// values never share a key. Exposed for packages that need grouping
// semantics consistent with the engine (sqlstore's DISTINCT and upsert
// index).
func AppendKey(buf []byte, vals ...Value) []byte { return appendCompositeKey(buf, vals) }

// Numeric converts a value to float64 when possible.
func Numeric(v Value) (float64, bool) { return numeric(v) }
