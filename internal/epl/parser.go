package epl

import (
	"strconv"
	"strings"
)

// Parse parses an EPL query.
func Parse(src string) (*Query, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		return nil, errAt(p.cur().Pos, "unexpected %q after end of query", p.cur().Text)
	}
	return q, nil
}

// MustParse parses src and panics on error; intended for statically known
// queries in tests and examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind TokenKind) bool { return p.cur().Kind == kind }

func (p *parser) atKeyword(kw string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind) (Token, error) {
	if !p.at(kind) {
		return Token{}, errAt(p.cur().Pos, "expected %s, found %q", kind, p.cur().Text)
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return errAt(p.cur().Pos, "expected %s, found %q", kw, p.cur().Text)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if !p.at(TokComma) {
			break
		}
		p.next()
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		q.From = append(q.From, item)
		if !p.at(TokComma) {
			break
		}
		p.next()
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.GroupBy = append(q.GroupBy, e)
			if !p.at(TokComma) {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		q.Having = e
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.at(TokStar) {
		p.next()
		return SelectItem{Star: true}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		t, err := p.expect(TokIdent)
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.Text
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	name, err := p.expect(TokIdent)
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Stream: name.Text, Alias: name.Text}
	for p.at(TokDot) {
		p.next()
		view, err := p.parseViewSpec()
		if err != nil {
			return FromItem{}, err
		}
		item.Views = append(item.Views, view)
	}
	if p.acceptKeyword("AS") {
		t, err := p.expect(TokIdent)
		if err != nil {
			return FromItem{}, err
		}
		item.Alias = t.Text
	}
	if p.acceptKeyword("UNIDIRECTIONAL") {
		item.Unidirectional = true
	}
	return item, nil
}

func (p *parser) parseViewSpec() (ViewSpec, error) {
	ns, err := p.expect(TokIdent)
	if err != nil {
		return ViewSpec{}, err
	}
	if _, err := p.expect(TokColon); err != nil {
		return ViewSpec{}, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return ViewSpec{}, err
	}
	spec := ViewSpec{
		Namespace: strings.ToLower(ns.Text),
		Name:      strings.ToLower(name.Text),
	}
	if _, ok := knownViews[spec.Namespace+":"+spec.Name]; !ok {
		return ViewSpec{}, errAt(ns.Pos, "unknown view %s:%s", spec.Namespace, spec.Name)
	}
	if _, err := p.expect(TokLParen); err != nil {
		return ViewSpec{}, err
	}
	if !p.at(TokRParen) {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return ViewSpec{}, err
			}
			spec.Args = append(spec.Args, arg)
			if !p.at(TokComma) {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return ViewSpec{}, err
	}
	return spec, checkViewArgs(spec, ns.Pos)
}

// Expression precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: inner}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op string
	switch p.cur().Kind {
	case TokEq:
		op = "="
	case TokNeq:
		op = "!="
	case TokLt:
		op = "<"
	case TokLte:
		op = "<="
	case TokGt:
		op = ">"
	case TokGte:
		op = ">="
	default:
		return left, nil
	}
	p.next()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BinaryExpr{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := p.next().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) || p.at(TokSlash) {
		op := p.next().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.at(TokMinus) {
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if num, ok := inner.(*NumberLit); ok {
			return &NumberLit{Value: -num.Value}, nil
		}
		return &UnaryExpr{Op: "-", Expr: inner}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Pos, "bad number %q", t.Text)
		}
		return &NumberLit{Value: v}, nil
	case TokString:
		p.next()
		return &StringLit{Value: t.Text}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokKeyword:
		switch t.Text {
		case "TRUE":
			p.next()
			return &BoolLit{Value: true}, nil
		case "FALSE":
			p.next()
			return &BoolLit{Value: false}, nil
		}
		return nil, errAt(t.Pos, "unexpected keyword %q in expression", t.Text)
	case TokIdent:
		p.next()
		// Function call?
		if p.at(TokLParen) {
			p.next()
			call := &CallExpr{Func: strings.ToLower(t.Text)}
			if p.at(TokStar) {
				p.next()
				call.Star = true
			} else if !p.at(TokRParen) {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if !p.at(TokComma) {
						break
					}
					p.next()
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		// Qualified field reference?
		if p.at(TokDot) {
			p.next()
			f, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			return &FieldRef{Alias: t.Text, Field: f.Text}, nil
		}
		return &FieldRef{Field: t.Text}, nil
	}
	return nil, errAt(t.Pos, "unexpected %q in expression", t.Text)
}

// validate performs the semantic checks that do not require a schema:
// unique aliases, aggregates only in SELECT/HAVING, and alias references
// resolving to FROM items.
func validate(q *Query) error {
	aliases := make(map[string]bool, len(q.From))
	for _, f := range q.From {
		if aliases[f.Alias] {
			return errAt(1, "duplicate stream alias %q", f.Alias)
		}
		aliases[f.Alias] = true
	}

	checkRefs := func(e Expr) error {
		for _, r := range FieldRefs(e) {
			if r.Alias != "" && !aliases[r.Alias] {
				return errAt(1, "unknown stream alias %q in %s", r.Alias, r)
			}
		}
		return nil
	}
	if err := checkRefs(q.Where); err != nil {
		return err
	}
	if q.Where != nil && HasAggregate(q.Where) {
		return errAt(1, "aggregate functions are not allowed in WHERE (use HAVING)")
	}
	for _, g := range q.GroupBy {
		if err := checkRefs(g); err != nil {
			return err
		}
		if HasAggregate(g) {
			return errAt(1, "aggregate functions are not allowed in GROUP BY")
		}
	}
	if err := checkRefs(q.Having); err != nil {
		return err
	}
	for _, s := range q.Select {
		if s.Star {
			continue
		}
		if err := checkRefs(s.Expr); err != nil {
			return err
		}
	}
	return nil
}

// knownViews maps namespace:name to the argument count it requires
// (-1 means one-or-more): the views of the paper's rule template.
var knownViews = map[string]int{
	"std:lastevent": 0,
	"std:groupwin":  -1,
	"win:length":    1,
	"win:keepall":   0,
}

// checkViewArgs checks a known view's argument count, and that groupwin's
// arguments are field names.
func checkViewArgs(v ViewSpec, pos int) error {
	key := v.Namespace + ":" + v.Name
	switch want := knownViews[key]; {
	case want == -1:
		if len(v.Args) == 0 {
			return errAt(pos, "view %s requires at least one argument", key)
		}
	case len(v.Args) != want:
		return errAt(pos, "view %s takes %d argument(s), got %d", key, want, len(v.Args))
	}
	if v.Name == "groupwin" {
		for _, a := range v.Args {
			if _, ok := a.(*FieldRef); !ok {
				return errAt(pos, "std:groupwin arguments must be field names, got %s", a)
			}
		}
	}
	return nil
}
