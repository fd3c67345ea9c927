// Package epl implements the subset of Esper's Event Processing Language
// that the paper's traffic-management rules use (Listing 1 and §2.1.2):
// SELECT / FROM with chained stream views / WHERE / GROUP BY / HAVING, an
// SQL-like expression language with aggregates, and the view
// specifications std:lastevent(), std:groupwin(...), win:length(n) and
// win:keepall(). SELECT DISTINCT parses for sqlstore's threshold query
// (Listing 2); the CEP engine rejects it.
//
// The package contains only the language front-end (lexer, AST, parser);
// execution lives in internal/cep.
package epl

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokComma
	TokDot
	TokColon
	TokLParen
	TokRParen
	TokStar
	TokPlus
	TokMinus
	TokSlash
	TokEq  // =
	TokNeq // != or <>
	TokLt  // <
	TokLte // <=
	TokGt  // >
	TokGte // >=
	TokKeyword
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokComma:
		return ","
	case TokDot:
		return "."
	case TokColon:
		return ":"
	case TokLParen:
		return "("
	case TokRParen:
		return ")"
	case TokStar:
		return "*"
	case TokPlus:
		return "+"
	case TokMinus:
		return "-"
	case TokSlash:
		return "/"
	case TokEq:
		return "="
	case TokNeq:
		return "!="
	case TokLt:
		return "<"
	case TokLte:
		return "<="
	case TokGt:
		return ">"
	case TokGte:
		return ">="
	case TokKeyword:
		return "keyword"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical token with its source position (1-based column).
type Token struct {
	Kind TokenKind
	Text string // raw text; keywords are upper-cased
	Pos  int
}

// Keywords recognized by the parser. EPL keywords are case-insensitive.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "AS": true, "AND": true, "OR": true, "NOT": true,
	"TRUE": true, "FALSE": true, "DISTINCT": true, "UNIDIRECTIONAL": true,
}

// SyntaxError is returned for any lexical or grammatical problem, carrying
// the offending position in the query text.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("epl: syntax error at position %d: %s", e.Pos, e.Msg)
}

func errAt(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
