// Package parse implements the recursive-descent parser for EXCESS.
//
// The grammar is the README's reconstruction of the paper's by-example
// syntax: QUEL-derived DML (range/retrieve/append/delete/replace), EXTRA
// DDL (define type/enum/function/procedure/index, create, drop),
// authorization (grant/revoke), and an expression language with path
// expressions, implicit joins, aggregates with by/over, set operators and
// extensible ADT operators.
//
// ADT operators are resolved for precedence and fixity through an OpTable
// (normally the adt.Registry), so newly registered operators parse
// without scanner or parser changes — the paper's requirement that new
// operators declare their precedence and associativity at registration.
package parse

import (
	"fmt"
	"strconv"

	"repro/internal/excess/ast"
	"repro/internal/excess/scan"
	"repro/internal/excess/token"
)

// OpTable supplies parse-time properties of registered ADT operators.
type OpTable interface {
	OperatorInfo(symbol string) (prec int, rightAssoc, prefix, ok bool)
}

// Parser parses a token stream into statements.
type Parser struct {
	toks []token.Token
	pos  int
	ops  OpTable
}

// New parses src into a Parser ready to produce statements. ops may be
// nil, in which case only the built-in operators are accepted.
func New(src string, ops OpTable) (*Parser, error) {
	toks, err := scan.All(src)
	if err != nil {
		return nil, err
	}
	return FromTokens(toks, ops), nil
}

// FromTokens returns a Parser over a text its caller already scanned:
// toks is a whole token stream, ending with EOF, as scan.All returns
// it. The parser reads toks only while it parses; no statement it
// returns refers to the slice.
func FromTokens(toks []token.Token, ops OpTable) *Parser {
	return &Parser{toks: toks, ops: ops}
}

// Statements parses the entire input as a statement sequence.
func Statements(src string, ops OpTable) ([]ast.Statement, error) {
	p, err := New(src, ops)
	if err != nil {
		return nil, err
	}
	return p.All()
}

// All parses the rest of the token stream as a statement sequence.
func (p *Parser) All() ([]ast.Statement, error) {
	var out []ast.Statement
	for {
		for p.at(token.SEMI) {
			p.next()
		}
		if p.at(token.EOF) {
			return out, nil
		}
		s, err := p.Statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// One parses exactly one statement and requires the input to end there.
func One(src string, ops OpTable) (ast.Statement, error) {
	ss, err := Statements(src, ops)
	if err != nil {
		return nil, err
	}
	return Single(ss)
}

// Single returns the one statement of a parsed input, or One's error
// when it holds another number.
func Single(ss []ast.Statement) (ast.Statement, error) {
	if len(ss) != 1 {
		return nil, fmt.Errorf("expected one statement, got %d", len(ss))
	}
	return ss[0], nil
}

func (p *Parser) cur() token.Token     { return p.toks[p.pos] }
func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) atOp(sym string) bool {
	t := p.cur()
	return t.Kind == token.OP && t.Text == sym
}

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("%d:%d: %s", t.Line, t.Col, fmt.Sprintf(format, args...))
}

func (p *Parser) posn() ast.Position {
	t := p.cur()
	return ast.Position{Line: t.Line, Col: t.Col}
}

// Statement parses one statement.
func (p *Parser) Statement() (ast.Statement, error) {
	switch p.cur().Kind {
	case token.DEFINE:
		return p.define()
	case token.CREATE:
		return p.create()
	case token.DROP:
		return p.drop()
	case token.RANGE:
		return p.rangeDecl()
	case token.RETRIEVE:
		return p.retrieve()
	case token.APPEND:
		return p.appendStmt()
	case token.DELETE:
		return p.deleteStmt()
	case token.REPLACE:
		return p.replaceStmt()
	case token.SET:
		return p.setStmt()
	case token.EXECUTE:
		return p.executeStmt()
	case token.GRANT:
		return p.grant()
	case token.REVOKE:
		return p.revoke()
	case token.IDENT:
		if p.cur().Text == "declare" {
			pos := p.posn()
			p.next()
			if _, err := p.expect(token.FUNCTION); err != nil {
				return nil, err
			}
			return p.declareFunction(pos)
		}
	}
	return nil, p.errf("expected a statement, found %s", p.cur())
}

// ---------------------------------------------------------------------------
// DDL

func (p *Parser) define() (ast.Statement, error) {
	pos := p.posn()
	p.next() // define
	switch p.cur().Kind {
	case token.TYPE:
		p.next()
		return p.defineType(pos)
	case token.ENUM:
		p.next()
		return p.defineEnum(pos)
	case token.FUNCTION:
		p.next()
		return p.defineFunction(pos, false)
	case token.LATE:
		p.next()
		if _, err := p.expect(token.FUNCTION); err != nil {
			return nil, err
		}
		return p.defineFunction(pos, true)
	case token.PROCEDURE:
		p.next()
		return p.defineProcedure(pos)
	case token.INDEX:
		p.next()
		return p.defineIndex(pos, false)
	case token.IDENT:
		if p.cur().Text == "unique" {
			p.next()
			if _, err := p.expect(token.INDEX); err != nil {
				return nil, err
			}
			return p.defineIndex(pos, true)
		}
	}
	return nil, p.errf("expected type, enum, function, procedure or index after define")
}

func (p *Parser) ident() (string, error) {
	t, err := p.expect(token.IDENT)
	if err != nil {
		return "", err
	}
	return t.Text, nil
}

func (p *Parser) defineType(pos ast.Position) (ast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &ast.DefineType{Position: pos, Name: name}
	if p.at(token.INHERITS) {
		p.next()
		for {
			ic := ast.InheritClause{Position: p.posn()}
			if ic.Super, err = p.ident(); err != nil {
				return nil, err
			}
			if p.at(token.WITH) {
				p.next()
				for {
					rc := ast.RenameClause{Position: p.posn()}
					if rc.Old, err = p.ident(); err != nil {
						return nil, err
					}
					if _, err = p.expect(token.RENAMED); err != nil {
						return nil, err
					}
					if rc.New, err = p.ident(); err != nil {
						return nil, err
					}
					ic.Renames = append(ic.Renames, rc)
					if !p.at(token.AND) {
						break
					}
					p.next()
				}
			}
			d.Inherits = append(d.Inherits, ic)
			if !p.at(token.COMMA) {
				break
			}
			p.next()
		}
	}
	if _, err := p.expect(token.COLON); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	for !p.at(token.RPAREN) {
		a := ast.AttrDecl{Position: p.posn()}
		if a.Name, err = p.ident(); err != nil {
			return nil, err
		}
		if _, err = p.expect(token.COLON); err != nil {
			return nil, err
		}
		if a.Comp, err = p.component(); err != nil {
			return nil, err
		}
		d.Attrs = append(d.Attrs, a)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) defineEnum(pos ast.Position) (ast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.COLON); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	d := &ast.DefineEnum{Position: pos, Name: name}
	for {
		l, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.Labels = append(d.Labels, l)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return d, nil
}

// component parses [own [ref] | ref] type-expr.
func (p *Parser) component() (*ast.ComponentExpr, error) {
	c := &ast.ComponentExpr{Position: p.posn(), Mode: "own"}
	switch p.cur().Kind {
	case token.OWN:
		p.next()
		if p.at(token.REF) {
			p.next()
			c.Mode = "own ref"
		}
	case token.REF:
		p.next()
		c.Mode = "ref"
	}
	t, err := p.typeExpr()
	if err != nil {
		return nil, err
	}
	c.Type = t
	return c, nil
}

// typeExpr parses a type: a name (with optional char width), a set
// constructor, or an array constructor.
func (p *Parser) typeExpr() (ast.TypeExpr, error) {
	pos := p.posn()
	switch p.cur().Kind {
	case token.LBRACE:
		p.next()
		elem, err := p.component()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RBRACE); err != nil {
			return nil, err
		}
		return &ast.SetType{Position: pos, Elem: elem}, nil
	case token.LBRACKET:
		p.next()
		a := &ast.ArrayType{Position: pos}
		if p.at(token.INT) {
			n, err := strconv.Atoi(p.next().Text)
			if err != nil || n <= 0 {
				return nil, p.errf("bad array length")
			}
			a.Len, a.Fixed = n, true
		}
		if _, err := p.expect(token.RBRACKET); err != nil {
			return nil, err
		}
		elem, err := p.component()
		if err != nil {
			return nil, err
		}
		a.Elem = elem
		return a, nil
	case token.REF:
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.RefType{Position: pos, Target: name}, nil
	case token.IDENT:
		name := p.next().Text
		nt := &ast.NamedType{Position: pos, Name: name}
		if name == "char" && p.at(token.LBRACKET) {
			p.next()
			t, err := p.expect(token.INT)
			if err != nil {
				return nil, err
			}
			w, err := strconv.Atoi(t.Text)
			if err != nil || w <= 0 {
				return nil, p.errf("bad char width")
			}
			nt.Width = w
			if _, err := p.expect(token.RBRACKET); err != nil {
				return nil, err
			}
		}
		return nt, nil
	}
	return nil, p.errf("expected a type, found %s", p.cur())
}

func (p *Parser) create() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.COLON); err != nil {
		return nil, err
	}
	c, err := p.component()
	if err != nil {
		return nil, err
	}
	cr := &ast.Create{Position: pos, Name: name, Comp: c}
	// Optional key clauses: "key (attr [, attr...])", associated with the
	// set instance rather than the type.
	for p.at(token.IDENT) && p.cur().Text == "key" {
		p.next()
		if _, err := p.expect(token.LPAREN); err != nil {
			return nil, err
		}
		var attrs []string
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
			if !p.at(token.COMMA) {
				break
			}
			p.next()
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		cr.Keys = append(cr.Keys, attrs)
	}
	return cr, nil
}

func (p *Parser) drop() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &ast.Drop{Position: pos, Name: name}, nil
}

func (p *Parser) params() ([]ast.Param, error) {
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	var out []ast.Param
	for !p.at(token.RPAREN) {
		prm := ast.Param{Position: p.posn()}
		var err error
		if prm.Name, err = p.ident(); err != nil {
			return nil, err
		}
		if _, err = p.expect(token.COLON); err != nil {
			return nil, err
		}
		if prm.Type, err = p.typeExpr(); err != nil {
			return nil, err
		}
		out = append(out, prm)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return out, nil
}

// declareFunction parses a bodyless forward declaration.
func (p *Parser) declareFunction(pos ast.Position) (ast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	f := &ast.DefineFunction{Position: pos, Name: name, DeclOnly: true}
	if f.Params, err = p.params(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RETURNS); err != nil {
		return nil, err
	}
	if f.Returns, err = p.component(); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) defineFunction(pos ast.Position, late bool) (ast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	f := &ast.DefineFunction{Position: pos, Name: name, Late: late}
	if f.Params, err = p.params(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RETURNS); err != nil {
		return nil, err
	}
	if f.Returns, err = p.component(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.AS); err != nil {
		return nil, err
	}
	if p.at(token.RETRIEVE) {
		q, err := p.retrieve()
		if err != nil {
			return nil, err
		}
		f.Query = q.(*ast.Retrieve)
		return f, nil
	}
	if f.Expr, err = p.Expr(); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) defineProcedure(pos ast.Position) (ast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	pr := &ast.DefineProcedure{Position: pos, Name: name}
	if pr.Params, err = p.params(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.AS); err != nil {
		return nil, err
	}
	for {
		st, err := p.Statement()
		if err != nil {
			return nil, err
		}
		pr.Body = append(pr.Body, st)
		if !p.at(token.SEMI) {
			break
		}
		// A semicolon continues the body only if another statement
		// follows; a trailing semicolon ends it.
		p.next()
		switch p.cur().Kind {
		case token.RETRIEVE, token.APPEND, token.DELETE, token.REPLACE,
			token.SET, token.EXECUTE, token.RANGE:
			continue
		}
		break
	}
	return pr, nil
}

func (p *Parser) defineIndex(pos ast.Position, unique bool) (ast.Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.ON); err != nil {
		return nil, err
	}
	ext, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	d := &ast.DefineIndex{Position: pos, Name: name, Extent: ext, Unique: unique}
	for {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		d.Path = append(d.Path, a)
		if !p.at(token.DOT) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return d, nil
}

// ---------------------------------------------------------------------------
// DML

func (p *Parser) rangeDecl() (ast.Statement, error) {
	pos := p.posn()
	p.next() // range
	if _, err := p.expect(token.OF); err != nil {
		return nil, err
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.IS); err != nil {
		return nil, err
	}
	d := &ast.RangeDecl{Position: pos, Var: v}
	if p.at(token.ALL) {
		p.next()
		d.All = true
	}
	if d.Src, err = p.path(); err != nil {
		return nil, err
	}
	return d, nil
}

// path parses Root[idx].step[idx]....
func (p *Parser) path() (*ast.Path, error) {
	pos := p.posn()
	root, err := p.ident()
	if err != nil {
		return nil, err
	}
	pa := &ast.Path{Position: pos, Root: root}
	if p.at(token.LBRACKET) {
		p.next()
		if pa.RootIndex, err = p.Expr(); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RBRACKET); err != nil {
			return nil, err
		}
	}
	for p.at(token.DOT) {
		p.next()
		st := ast.PathStep{Position: p.posn()}
		if st.Name, err = p.ident(); err != nil {
			return nil, err
		}
		if p.at(token.LBRACKET) {
			p.next()
			if st.Index, err = p.Expr(); err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBRACKET); err != nil {
				return nil, err
			}
		}
		pa.Steps = append(pa.Steps, st)
	}
	return pa, nil
}

func (p *Parser) fromClause() ([]ast.FromBinding, error) {
	if !p.at(token.FROM) {
		return nil, nil
	}
	p.next()
	var out []ast.FromBinding
	for {
		b := ast.FromBinding{Position: p.posn()}
		var err error
		if b.Var, err = p.ident(); err != nil {
			return nil, err
		}
		if _, err = p.expect(token.IN); err != nil {
			return nil, err
		}
		if b.Src, err = p.path(); err != nil {
			return nil, err
		}
		out = append(out, b)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	return out, nil
}

func (p *Parser) whereClause() (ast.Expr, error) {
	if !p.at(token.WHERE) {
		return nil, nil
	}
	p.next()
	return p.Expr()
}

func (p *Parser) retrieve() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	r := &ast.Retrieve{Position: pos}
	var err error
	if p.at(token.INTO) {
		p.next()
		if r.Into, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	for {
		t := ast.Target{Position: p.posn()}
		// "Name = expr" names the result column (QUEL style).
		if p.at(token.IDENT) && p.pos+1 < len(p.toks) &&
			p.toks[p.pos+1].Kind == token.OP && p.toks[p.pos+1].Text == "=" {
			t.Name = p.next().Text
			p.next() // =
		}
		if t.Expr, err = p.Expr(); err != nil {
			return nil, err
		}
		r.Targets = append(r.Targets, t)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if r.From, err = p.fromClause(); err != nil {
		return nil, err
	}
	if r.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return r, nil
}

// fieldAssigns parses "( name = expr, ... )"; it reports ok=false when the
// parenthesized list is not in field-assign form (positional form).
func (p *Parser) fieldAssigns() ([]ast.FieldAssign, bool, error) {
	if !(p.at(token.IDENT) && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == token.OP && p.toks[p.pos+1].Text == "=") {
		return nil, false, nil
	}
	var out []ast.FieldAssign
	for {
		f := ast.FieldAssign{Position: p.posn()}
		var err error
		if f.Name, err = p.ident(); err != nil {
			return nil, false, err
		}
		if !p.atOp("=") {
			return nil, false, p.errf("expected = in field assignment")
		}
		p.next()
		if f.Expr, err = p.Expr(); err != nil {
			return nil, false, err
		}
		out = append(out, f)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	return out, true, nil
}

func (p *Parser) appendStmt() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	if p.at(token.TO) {
		p.next()
	}
	a := &ast.Append{Position: pos}
	var err error
	if a.To, err = p.path(); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	fields, ok, err := p.fieldAssigns()
	if err != nil {
		return nil, err
	}
	if ok {
		a.Fields = fields
	} else {
		if a.Value, err = p.Expr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if a.From, err = p.fromClause(); err != nil {
		return nil, err
	}
	if a.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return a, nil
}

func (p *Parser) deleteStmt() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &ast.Delete{Position: pos, Var: v}
	if d.From, err = p.fromClause(); err != nil {
		return nil, err
	}
	if d.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) replaceStmt() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	r := &ast.Replace{Position: pos, Var: v}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	fields, ok, err := p.fieldAssigns()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, p.errf("replace requires attr = expr assignments")
	}
	r.Fields = fields
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if r.From, err = p.fromClause(); err != nil {
		return nil, err
	}
	if r.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *Parser) setStmt() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	s := &ast.SetStmt{Position: pos}
	var err error
	if s.LHS, err = p.path(); err != nil {
		return nil, err
	}
	if !p.atOp("=") {
		return nil, p.errf("expected = in set statement")
	}
	p.next()
	if s.RHS, err = p.Expr(); err != nil {
		return nil, err
	}
	if s.From, err = p.fromClause(); err != nil {
		return nil, err
	}
	if s.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) executeStmt() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	e := &ast.Execute{Position: pos, Name: name}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	for !p.at(token.RPAREN) {
		a, err := p.Expr()
		if err != nil {
			return nil, err
		}
		e.Args = append(e.Args, a)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if e.From, err = p.fromClause(); err != nil {
		return nil, err
	}
	if e.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) privName() (string, error) {
	switch p.cur().Kind {
	case token.ALL:
		p.next()
		return "all", nil
	case token.IDENT:
		t := p.next().Text
		if t != "select" && t != "update" {
			return "", p.errf("unknown privilege %q (want select, update or all)", t)
		}
		return t, nil
	}
	return "", p.errf("expected a privilege")
}

func (p *Parser) grant() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	priv, err := p.privName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.ON); err != nil {
		return nil, err
	}
	on, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.TO); err != nil {
		return nil, err
	}
	g := &ast.Grant{Position: pos, Priv: priv, On: on}
	for {
		w, err := p.ident()
		if err != nil {
			return nil, err
		}
		g.To = append(g.To, w)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	return g, nil
}

func (p *Parser) revoke() (ast.Statement, error) {
	pos := p.posn()
	p.next()
	priv, err := p.privName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.ON); err != nil {
		return nil, err
	}
	on, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.FROM); err != nil {
		return nil, err
	}
	r := &ast.Revoke{Position: pos, Priv: priv, On: on}
	for {
		w, err := p.ident()
		if err != nil {
			return nil, err
		}
		r.From = append(r.From, w)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	return r, nil
}
