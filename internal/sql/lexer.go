// Package sql implements the SQL front end of the engine: a lexer, an AST
// and a recursive-descent parser for the subset of SQL used by the paper's
// workload and its rewritings — SELECT with joins (comma-style and JOIN ...
// ON), derived tables, WHERE with AND/OR/BETWEEN/IN, GROUP BY, HAVING,
// ORDER BY, LIMIT, aggregate functions, plus the DDL used by the physical
// designs (CREATE TABLE / INDEX / MATERIALIZED VIEW), INSERT ... VALUES and
// optimizer hints in an OPTION(...) clause.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF   TokenKind = iota
	TokIdent           // a bare or a double-quoted identifier
	TokKeyword
	TokNumber
	TokString
	TokOperator // = <> != < <= > >= + - * / ( ) , . ;
)

// Token is one lexical token with its position (1-based byte offset) for
// error reporting.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased, identifiers keep their case, quotes are taken off
	Pos  int
}

// keywords recognized by the lexer. Anything else alphanumeric is an identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"OFFSET": true, "AND": true, "OR": true, "NOT": true, "BETWEEN": true,
	"IN": true, "IS": true, "NULL": true, "AS": true, "CREATE": true,
	"TABLE": true, "INDEX": true, "UNIQUE": true, "CLUSTERED": true,
	"NONCLUSTERED": true, "MATERIALIZED": true, "VIEW": true, "INSERT": true,
	"INTO": true, "VALUES": true, "ON": true, "INCLUDE": true, "PRIMARY": true,
	"KEY": true, "DATE": true, "DROP": true, "DISTINCT": true, "OPTION": true,
	"JOIN": true, "INNER": true, "CROSS": true, "TRUE": true, "FALSE": true,
	"EXPLAIN": true, "ANALYZE": true,
}

// Lex tokenizes a SQL string. It returns an error for unterminated strings
// or unexpected characters.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// Line comment.
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, Token{Kind: TokKeyword, Text: upper, Pos: start + 1})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start + 1})
			}
		case c >= '0' && c <= '9':
			start := i
			seenDot := false
			for i < n && (input[i] >= '0' && input[i] <= '9' || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					seenDot = true
				}
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start + 1})
		case c == '\'' || c == '"':
			// A string literal, or a quoted identifier: a name that may be a
			// keyword or hold any character. Both double their quote to hold it.
			text, end, closed := quoted(input, i)
			kind, what := TokString, "string literal"
			if c == '"' {
				kind, what = TokIdent, "quoted identifier"
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated %s at position %d", what, i+1)
			}
			if kind == TokIdent && text == "" {
				return nil, fmt.Errorf("sql: empty quoted identifier at position %d", i+1)
			}
			toks = append(toks, Token{Kind: kind, Text: text, Pos: i + 1})
			i = end
		case strings.ContainsRune("=<>!+-*/(),.;", rune(c)):
			start := i
			op := string(c)
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					op = two
				}
			}
			i += len(op)
			toks = append(toks, Token{Kind: TokOperator, Text: op, Pos: start + 1})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, i+1)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Text: "", Pos: n + 1})
	return toks, nil
}

// quoted reads the quoted text that starts at input[start], its quote
// character, where a doubled quote stands for one. It returns the text and
// the offset after the closing quote, or closed=false when the input ends
// first.
func quoted(input string, start int) (text string, end int, closed bool) {
	q := input[start]
	var sb strings.Builder
	for i := start + 1; i < len(input); i++ {
		if input[i] != q {
			sb.WriteByte(input[i])
		} else if i+1 < len(input) && input[i+1] == q {
			sb.WriteByte(q)
			i++
		} else {
			return sb.String(), i + 1, true
		}
	}
	return "", len(input), false
}

// ident renders a name so that the lexer reads it back as that one
// identifier: bare when it lexes so, double-quoted otherwise (a keyword, or a
// name holding any other character).
func ident(name string) string {
	bare := name != "" && isIdentStart(rune(name[0])) && !keywords[strings.ToUpper(name)]
	for i := 1; bare && i < len(name); i++ {
		bare = isIdentPart(rune(name[i]))
	}
	if bare {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$'
}
