package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"oldelephant/internal/value"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(input string) (Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokOperator, ";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected input after statement: %q", p.peek().Text)
	}
	return stmt, nil
}

// ParseSelect parses a SELECT statement, rejecting any other statement kind.
func ParseSelect(input string) (*SelectStmt, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected a SELECT statement, got %T", stmt)
	}
	return sel, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) atEOF() bool { return p.peek().Kind == TokEOF }
func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: parse error near position %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

// accept consumes the next token if it matches kind and (case-insensitive) text.
func (p *Parser) accept(kind TokenKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && strings.EqualFold(t.Text, text) {
		p.advance()
		return true
	}
	return false
}

// acceptKeyword consumes the next token if it is the given keyword.
func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

// expect consumes a token of the given kind/text or returns an error.
func (p *Parser) expect(kind TokenKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.errorf("expected %q, found %q", text, p.peek().Text)
}

// expectIdent consumes and returns an identifier (keywords are not accepted).
func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier, found %q", t.Text)
	}
	p.advance()
	return t.Text, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.peek().Kind == TokKeyword && p.peek().Text == "SELECT":
		return p.parseSelect()
	case p.peek().Kind == TokKeyword && p.peek().Text == "CREATE":
		return p.parseCreate()
	case p.peek().Kind == TokKeyword && p.peek().Text == "INSERT":
		return p.parseInsert()
	case p.peek().Kind == TokKeyword && p.peek().Text == "DROP":
		return p.parseDrop()
	case p.peek().Kind == TokKeyword && p.peek().Text == "EXPLAIN":
		return p.parseExplain()
	default:
		return nil, p.errorf("expected SELECT, CREATE, INSERT, DROP or EXPLAIN, found %q", p.peek().Text)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <select>.
func (p *Parser) parseExplain() (*ExplainStmt, error) {
	if err := p.expect(TokKeyword, "EXPLAIN"); err != nil {
		return nil, err
	}
	analyze := p.acceptKeyword("ANALYZE")
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{Analyze: analyze, Query: sel}, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	// Select list.
	for {
		if p.accept(TokOperator, "*") {
			stmt.Select = append(stmt.Select, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().Kind == TokIdent {
				item.Alias = p.advance().Text
			}
			stmt.Select = append(stmt.Select, item)
		}
		if !p.accept(TokOperator, ",") {
			break
		}
	}
	// FROM.
	if p.acceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			stmt.From = append(stmt.From, ref)
			// JOIN ... ON folds into the FROM list with its predicate ANDed
			// into WHERE, which is how the planner treats comma joins too.
			for {
				isJoin := false
				if p.acceptKeyword("INNER") {
					if err := p.expect(TokKeyword, "JOIN"); err != nil {
						return nil, err
					}
					isJoin = true
				} else if p.acceptKeyword("JOIN") {
					isJoin = true
				} else if p.acceptKeyword("CROSS") {
					if err := p.expect(TokKeyword, "JOIN"); err != nil {
						return nil, err
					}
					ref2, err := p.parseTableRef()
					if err != nil {
						return nil, err
					}
					stmt.From = append(stmt.From, ref2)
					continue
				}
				if !isJoin {
					break
				}
				ref2, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				stmt.From = append(stmt.From, ref2)
				if err := p.expect(TokKeyword, "ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if stmt.Where == nil {
					stmt.Where = cond
				} else {
					stmt.Where = &BinExpr{Op: "AND", L: stmt.Where, R: cond}
				}
			}
			if !p.accept(TokOperator, ",") {
				break
			}
		}
	}
	// WHERE.
	if p.acceptKeyword("WHERE") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if stmt.Where == nil {
			stmt.Where = cond
		} else {
			stmt.Where = &BinExpr{Op: "AND", L: stmt.Where, R: cond}
		}
	}
	// GROUP BY.
	if p.acceptKeyword("GROUP") {
		if err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if !p.accept(TokOperator, ",") {
				break
			}
		}
	}
	// HAVING.
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = e
	}
	// ORDER BY.
	if p.acceptKeyword("ORDER") {
		if err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.accept(TokOperator, ",") {
				break
			}
		}
	}
	// LIMIT / OFFSET.
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Offset = n
	}
	// OPTION(hint, hint ...).
	if p.acceptKeyword("OPTION") {
		if err := p.expect(TokOperator, "("); err != nil {
			return nil, err
		}
		var words []string
		for {
			t := p.peek()
			if t.Kind == TokOperator && t.Text == ")" {
				break
			}
			if t.Kind == TokEOF {
				return nil, p.errorf("unterminated OPTION hint list")
			}
			if t.Kind == TokOperator && t.Text == "," {
				p.advance()
				if len(words) > 0 {
					stmt.Hints = append(stmt.Hints, strings.Join(words, " "))
					words = nil
				}
				continue
			}
			words = append(words, upperASCII(p.advance().Text))
		}
		if len(words) > 0 {
			stmt.Hints = append(stmt.Hints, strings.Join(words, " "))
		}
		if err := p.expect(TokOperator, ")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *Parser) parseIntLiteral() (int64, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errorf("expected number, found %q", t.Text)
	}
	p.advance()
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.Text)
	}
	return n, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	if p.accept(TokOperator, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return TableRef{}, err
		}
		if err := p.expect(TokOperator, ")"); err != nil {
			return TableRef{}, err
		}
		ref := TableRef{Subquery: sub}
		p.acceptKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, fmt.Errorf("sql: derived table requires an alias: %w", err)
		}
		ref.Alias = alias
		return ref, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().Kind == TokIdent {
		ref.Alias = p.advance().Text
	}
	return ref, nil
}

// Expression grammar (lowest to highest precedence):
//
//	orExpr    := andExpr (OR andExpr)*
//	andExpr   := notExpr (AND notExpr)*
//	notExpr   := NOT notExpr | predicate
//	predicate := addExpr [comparison | BETWEEN | IN | IS NULL]
//	addExpr   := mulExpr (("+"|"-") mulExpr)*
//	mulExpr   := unary (("*"|"/") unary)*
//	unary     := "-" unary | primary
//	primary   := literal | funcCall | colRef | "(" expr ")"
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(TokOperator, op) {
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinExpr{Op: op, L: left, R: right}, nil
		}
	}
	negated := false
	if p.peek().Kind == TokKeyword && p.peek().Text == "NOT" {
		// Lookahead for NOT BETWEEN / NOT IN.
		next := p.toks[p.pos+1]
		if next.Kind == TokKeyword && (next.Text == "BETWEEN" || next.Text == "IN") {
			p.advance()
			negated = true
		}
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: left, Lo: lo, Hi: hi, Not: negated}, nil
	}
	if p.acceptKeyword("IN") {
		if err := p.expect(TokOperator, "("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(TokOperator, ",") {
				break
			}
		}
		if err := p.expect(TokOperator, ")"); err != nil {
			return nil, err
		}
		return &InExpr{E: left, List: list, Not: negated}, nil
	}
	if p.acceptKeyword("IS") {
		not := p.acceptKeyword("NOT")
		if err := p.expect(TokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: left, Not: not}, nil
	}
	return left, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOperator, "+"):
			right, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{Op: "+", L: left, R: right}
		case p.accept(TokOperator, "-"):
			right, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{Op: "-", L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TokOperator, "*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{Op: "*", L: left, R: right}
		case p.accept(TokOperator, "/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinExpr{Op: "/", L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.accept(TokOperator, "-") {
		if t := p.peek(); t.Kind == TokNumber && t.Text == "9223372036854775808" {
			// The one INT literal whose magnitude has no positive INT.
			p.advance()
			return &Literal{Val: value.NewInt(math.MinInt64)}, nil
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negation of literals; otherwise express as 0 - e.
		if lit, ok := e.(*Literal); ok {
			switch lit.Val.Kind {
			case value.KindInt:
				return &Literal{Val: value.NewInt(-lit.Val.I)}, nil
			case value.KindFloat:
				return &Literal{Val: value.NewFloat(-lit.Val.F)}, nil
			}
		}
		return &BinExpr{Op: "-", L: &Literal{Val: value.NewInt(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TokNumber:
		p.advance()
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &Literal{Val: value.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return &Literal{Val: value.NewInt(n)}, nil
	case t.Kind == TokString:
		p.advance()
		return &Literal{Val: value.NewString(t.Text)}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.advance()
		return &Literal{Val: value.Null()}, nil
	case t.Kind == TokKeyword && t.Text == "TRUE":
		p.advance()
		return &Literal{Val: value.NewBool(true)}, nil
	case t.Kind == TokKeyword && t.Text == "FALSE":
		p.advance()
		return &Literal{Val: value.NewBool(false)}, nil
	case t.Kind == TokKeyword && t.Text == "DATE":
		p.advance()
		s := p.peek()
		if s.Kind != TokString {
			return nil, p.errorf("DATE must be followed by a 'YYYY-MM-DD' string")
		}
		p.advance()
		d, err := value.ParseDate(s.Text)
		if err != nil {
			return nil, p.errorf("bad date literal %q", s.Text)
		}
		return &Literal{Val: d}, nil
	case t.Kind == TokOperator && t.Text == "(":
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokOperator, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent || (t.Kind == TokKeyword && isFunctionName(t.Text)):
		p.advance()
		name := t.Text
		// Function call.
		if p.accept(TokOperator, "(") {
			fc := &FuncCall{Name: upperASCII(name)}
			if p.accept(TokOperator, "*") {
				fc.Star = true
			} else if !(p.peek().Kind == TokOperator && p.peek().Text == ")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, arg)
					if !p.accept(TokOperator, ",") {
						break
					}
				}
			}
			if err := p.expect(TokOperator, ")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// Qualified column reference.
		if p.accept(TokOperator, ".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: name, Column: col}, nil
		}
		return &ColRef{Column: name}, nil
	default:
		return nil, p.errorf("unexpected token %q in expression", t.Text)
	}
}

// isFunctionName reports whether a keyword can also start a function call
// (none of the reserved keywords are function names in this subset, but the
// hook keeps the parser extensible).
func isFunctionName(string) bool { return false }

// upperASCII upper-cases the ASCII letters of s and keeps every other byte,
// so that a word that is no valid UTF-8 renders as it was written.
func upperASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expect(TokKeyword, "CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	clustered := false
	if p.acceptKeyword("CLUSTERED") {
		clustered = true
	} else {
		p.acceptKeyword("NONCLUSTERED")
	}
	switch {
	case p.acceptKeyword("TABLE"):
		if unique || clustered {
			return nil, p.errorf("UNIQUE/CLUSTERED apply to indexes, not tables")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique, clustered)
	case p.acceptKeyword("MATERIALIZED"):
		if err := p.expect(TokKeyword, "VIEW"); err != nil {
			return nil, err
		}
		return p.parseCreateView(true)
	case p.acceptKeyword("VIEW"):
		return p.parseCreateView(false)
	default:
		return nil, p.errorf("expected TABLE, INDEX or VIEW after CREATE")
	}
}

func (p *Parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokOperator, "("); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{Name: name}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expect(TokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			stmt.PrimaryKey = cols
		} else {
			colName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typeTok := p.peek()
			if typeTok.Kind != TokIdent && typeTok.Kind != TokKeyword {
				return nil, p.errorf("expected type after column %q", colName)
			}
			p.advance()
			typ := strings.ToUpper(typeTok.Text)
			// Consume optional length arguments like VARCHAR(25).
			if p.accept(TokOperator, "(") {
				for !p.accept(TokOperator, ")") {
					if p.atEOF() {
						return nil, p.errorf("unterminated type arguments")
					}
					p.advance()
				}
			}
			stmt.Columns = append(stmt.Columns, ColumnDef{Name: colName, Type: typ})
		}
		if !p.accept(TokOperator, ",") {
			break
		}
	}
	if err := p.expect(TokOperator, ")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseIdentList() ([]string, error) {
	if err := p.expect(TokOperator, "("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.accept(TokOperator, ",") {
			break
		}
	}
	if err := p.expect(TokOperator, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseCreateIndex(unique, clustered bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cols, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	stmt := &CreateIndexStmt{Name: name, Table: table, Columns: cols, Unique: unique, Clustered: clustered}
	if p.acceptKeyword("INCLUDE") {
		inc, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		stmt.Include = inc
	}
	return stmt, nil
}

func (p *Parser) parseCreateView(materialized bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "AS"); err != nil {
		return nil, err
	}
	query, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &CreateViewStmt{Name: name, Materialized: materialized, Query: query}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.expect(TokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.peek().Kind == TokOperator && p.peek().Text == "(" {
		cols, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		stmt.Columns = cols
	}
	if err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(TokOperator, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokOperator, ",") {
				break
			}
		}
		if err := p.expect(TokOperator, ")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(TokOperator, ",") {
			break
		}
	}
	return stmt, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expect(TokKeyword, "DROP"); err != nil {
		return nil, err
	}
	if err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name}, nil
}
