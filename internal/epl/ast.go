package epl

import (
	"fmt"
	"strings"
)

// Query is a parsed EPL statement.
type Query struct {
	Distinct bool
	Select   []SelectItem
	From     []FromItem
	Where    Expr   // nil when absent
	GroupBy  []Expr // nil when absent
	Having   Expr   // nil when absent
}

// SelectItem is one projection. A wildcard item has Star == true.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string // "" when no AS alias given
}

// FromItem is one stream with its view chain, e.g.
// "bus.std:groupwin(location).win:length(10) AS bd2".
type FromItem struct {
	Stream         string
	Views          []ViewSpec
	Alias          string // defaults to the stream name
	Unidirectional bool   // only this item's arrivals trigger output
}

// ViewSpec is one view in a chain, e.g. win:length(10).
type ViewSpec struct {
	Namespace string // "std" or "win"
	Name      string // "lastevent", "groupwin", "length", ...
	Args      []Expr
}

func (v ViewSpec) String() string {
	args := make([]string, len(v.Args))
	for i, a := range v.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s:%s(%s)", v.Namespace, v.Name, strings.Join(args, ","))
}

// Expr is a node of the expression tree.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// NumberLit is a numeric literal. All EPL numbers are float64.
type NumberLit struct{ Value float64 }

// StringLit is a string literal.
type StringLit struct{ Value string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Value bool }

// FieldRef references an event field, optionally qualified by a stream
// alias: "bd.location" or bare "location".
type FieldRef struct {
	Alias string // "" when unqualified
	Field string
}

// BinaryExpr is a binary operation. Op is one of
// + - * / = != < <= > >= AND OR.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

// CallExpr is a function call: aggregates (avg, sum, count, min, max,
// stddev) or engine-registered scalar functions.
type CallExpr struct {
	Func string // lower-cased
	Args []Expr
	Star bool // count(*)
}

func (*NumberLit) exprNode()  {}
func (*StringLit) exprNode()  {}
func (*BoolLit) exprNode()    {}
func (*FieldRef) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}

func (e *NumberLit) String() string { return trimFloat(e.Value) }

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

func (e *StringLit) String() string {
	return fmt.Sprintf("'%s'", strings.ReplaceAll(e.Value, "'", "''"))
}

func (e *BoolLit) String() string {
	if e.Value {
		return "true"
	}
	return "false"
}

func (e *FieldRef) String() string {
	if e.Alias == "" {
		return e.Field
	}
	return e.Alias + "." + e.Field
}

func (e *BinaryExpr) String() string {
	op := e.Op
	if op == "AND" || op == "OR" {
		return fmt.Sprintf("(%s %s %s)", e.Left, op, e.Right)
	}
	return fmt.Sprintf("(%s %s %s)", e.Left, op, e.Right)
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", e.Expr)
	}
	return fmt.Sprintf("(-%s)", e.Expr)
}

func (e *CallExpr) String() string {
	if e.Star {
		return e.Func + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Func, strings.Join(args, ","))
}

// String renders the query back to EPL (normalized spelling).
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, s := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		if s.Star {
			sb.WriteString("*")
			continue
		}
		sb.WriteString(s.Expr.String())
		if s.Alias != "" {
			sb.WriteString(" AS " + s.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, f := range q.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(f.Stream)
		for _, v := range f.Views {
			sb.WriteString("." + v.String())
		}
		if f.Alias != "" && f.Alias != f.Stream {
			sb.WriteString(" AS " + f.Alias)
		}
		if f.Unidirectional {
			sb.WriteString(" UNIDIRECTIONAL")
		}
	}
	if q.Where != nil {
		sb.WriteString(" WHERE " + q.Where.String())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range q.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if q.Having != nil {
		sb.WriteString(" HAVING " + q.Having.String())
	}
	return sb.String()
}

// AggregateFuncs is the set of aggregate function names.
var AggregateFuncs = map[string]bool{
	"avg": true, "sum": true, "count": true,
	"min": true, "max": true, "stddev": true,
}

// HasAggregate reports whether the expression tree contains an aggregate
// function call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*CallExpr); ok && AggregateFuncs[c.Func] {
			found = true
		}
	})
	return found
}

// WalkExpr visits e and all sub-expressions in pre-order. A nil expression
// is a no-op.
func WalkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.Left, f)
		WalkExpr(x.Right, f)
	case *UnaryExpr:
		WalkExpr(x.Expr, f)
	case *CallExpr:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	}
}

// FieldRefs returns every field reference in the expression tree.
func FieldRefs(e Expr) []*FieldRef {
	var refs []*FieldRef
	WalkExpr(e, func(x Expr) {
		if r, ok := x.(*FieldRef); ok {
			refs = append(refs, r)
		}
	})
	return refs
}
