package parse

import (
	"strconv"

	"repro/internal/excess/ast"
	"repro/internal/excess/token"
)

// Expression precedence, loosest to tightest:
//
//	1  or
//	2  and
//	3  not (prefix)
//	4  = != < <= > >= is isnot in contains   (and ADT operators at 4)
//	5  + - union diff                         (and ADT operators at 5)
//	6  * / % intersect                        (and ADT operators at 6)
//	7  unary -  and ADT prefix operators
//	8  postfix: path steps, indexing, method calls
//
// Registered ADT operators declare their level (1..7) at registration,
// satisfying the paper's requirement that new operators specify
// precedence and associativity.

// Expr parses an expression.
func (p *Parser) Expr() (ast.Expr, error) { return p.orExpr() }

func (p *Parser) orExpr() (ast.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.OR) {
		pos := p.posn()
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Position: pos, Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) andExpr() (ast.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.AND) {
		pos := p.posn()
		p.next()
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Position: pos, Op: "and", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) notExpr() (ast.Expr, error) {
	if p.at(token.NOT) {
		pos := p.posn()
		p.next()
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Position: pos, Op: "not", X: x}, nil
	}
	return p.cmpExpr()
}

// infixAt reports whether the current token is an infix operator of the
// given precedence level, returning its surface symbol.
func (p *Parser) infixAt(level int) (string, bool) {
	t := p.cur()
	switch t.Kind {
	case token.IS:
		return "is", level == 4
	case token.ISNOT:
		return "isnot", level == 4
	case token.IN:
		return "in", level == 4
	case token.CONTAINS:
		return "contains", level == 4
	case token.UNION:
		return "union", level == 5
	case token.DIFF:
		return "diff", level == 5
	case token.INTERSECT:
		return "intersect", level == 6
	case token.OP:
		switch t.Text {
		case "=", "!=", "<", "<=", ">", ">=":
			return t.Text, level == 4
		case "+", "-":
			return t.Text, level == 5
		case "*", "/", "%":
			return t.Text, level == 6
		}
		if p.ops != nil {
			if prec, _, prefix, ok := p.ops.OperatorInfo(t.Text); ok && !prefix {
				return t.Text, prec == level
			}
		}
	}
	return "", false
}

func (p *Parser) binaryLevel(level int, sub func() (ast.Expr, error)) (ast.Expr, error) {
	l, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		sym, ok := p.infixAt(level)
		if !ok {
			return l, nil
		}
		pos := p.posn()
		p.next()
		r, err := sub()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Position: pos, Op: sym, L: l, R: r}
	}
}

func (p *Parser) cmpExpr() (ast.Expr, error) {
	return p.binaryLevel(4, p.addExpr)
}

func (p *Parser) addExpr() (ast.Expr, error) {
	return p.binaryLevel(5, p.mulExpr)
}

func (p *Parser) mulExpr() (ast.Expr, error) {
	return p.binaryLevel(6, p.unaryExpr)
}

func (p *Parser) unaryExpr() (ast.Expr, error) {
	if p.at(token.OP) {
		t := p.cur()
		if t.Text == "-" {
			pos := p.posn()
			p.next()
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			// Fold negative literals for cleaner ASTs. The folded literal
			// starts at the minus sign: its position is no literal
			// token's, which is how a reader of the token stream tells
			// "-5" from "5".
			switch lit := x.(type) {
			case *ast.IntLit:
				lit.Position, lit.V = pos, -lit.V
				return lit, nil
			case *ast.FloatLit:
				lit.Position, lit.V = pos, -lit.V
				return lit, nil
			}
			return &ast.Unary{Position: pos, Op: "-", X: x}, nil
		}
		if p.ops != nil {
			if _, _, prefix, ok := p.ops.OperatorInfo(t.Text); ok && prefix {
				pos := p.posn()
				p.next()
				x, err := p.unaryExpr()
				if err != nil {
					return nil, err
				}
				return &ast.Unary{Position: pos, Op: t.Text, X: x}, nil
			}
		}
	}
	return p.postfixExpr()
}

func (p *Parser) postfixExpr() (ast.Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	// Method-call chaining on non-path results: "E.loc.Distance(origin)".
	for p.at(token.DOT) {
		// A dot here can only continue into a method call; plain attribute
		// access is folded into Path by primary. This arm is reached when
		// x is a Call or parenthesized expression.
		if _, isPath := x.(*ast.Path); isPath {
			break // primary consumed all path steps already
		}
		pos := p.posn()
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if !p.at(token.LPAREN) {
			return nil, p.errf("attribute access on a computed value is not supported; use a method call")
		}
		args, err := p.callArgs()
		if err != nil {
			return nil, err
		}
		x = &ast.Call{Position: pos, Recv: x, Name: name, Args: args}
	}
	return x, nil
}

func (p *Parser) callArgs() ([]ast.Expr, error) {
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	var args []ast.Expr
	for !p.at(token.RPAREN) {
		a, err := p.Expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *Parser) primary() (ast.Expr, error) {
	pos := p.posn()
	switch p.cur().Kind {
	case token.INT:
		t := p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", t.Text)
		}
		return &ast.IntLit{Position: pos, V: v}, nil
	case token.FLOAT:
		t := p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf("bad float literal %q", t.Text)
		}
		return &ast.FloatLit{Position: pos, V: v}, nil
	case token.STRING:
		t := p.next()
		return &ast.StrLit{Position: pos, V: t.Text}, nil
	case token.TRUE:
		p.next()
		return &ast.BoolLit{Position: pos, V: true}, nil
	case token.FALSE:
		p.next()
		return &ast.BoolLit{Position: pos, V: false}, nil
	case token.NULL:
		p.next()
		return &ast.NullLit{Position: pos}, nil
	case token.LPAREN:
		p.next()
		x, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	case token.LBRACE:
		p.next()
		s := &ast.SetLit{Position: pos}
		for !p.at(token.RBRACE) {
			e, err := p.Expr()
			if err != nil {
				return nil, err
			}
			s.Elems = append(s.Elems, e)
			if !p.at(token.COMMA) {
				break
			}
			p.next()
		}
		if _, err := p.expect(token.RBRACE); err != nil {
			return nil, err
		}
		return s, nil
	case token.IDENT:
		return p.identExpr()
	case token.OP:
		// "$N" is a positional prepared-statement parameter. The scanner
		// lexes it as OP("$") followed by the integer (digits are not
		// operator characters, so the maximal-munch run stops at "$").
		if p.cur().Text == "$" && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == token.INT {
			p.next() // $
			t := p.next()
			n, err := strconv.Atoi(t.Text)
			if err != nil || n < 1 {
				return nil, p.errf("bad parameter number $%s", t.Text)
			}
			return &ast.Placeholder{Position: pos, N: n}, nil
		}
	}
	return nil, p.errf("expected an expression, found %s", p.cur())
}

// identExpr parses everything that begins with an identifier: a path, a
// call, an aggregate with by/over, or a tuple constructor.
func (p *Parser) identExpr() (ast.Expr, error) {
	pos := p.posn()
	name := p.next().Text
	if !p.at(token.LPAREN) {
		// A path: re-seat the parser just after the root identifier.
		return p.pathFrom(pos, name)
	}
	// Tuple constructor: Name ( ident = ... ).
	if p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == token.IDENT &&
		p.toks[p.pos+2].Kind == token.OP && p.toks[p.pos+2].Text == "=" {
		p.next() // (
		fields, ok, err := p.fieldAssigns()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, p.errf("malformed tuple constructor")
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return &ast.TupleLit{Position: pos, TypeName: name, Fields: fields}, nil
	}
	// Call or aggregate.
	p.next() // (
	var args []ast.Expr
	for !p.at(token.RPAREN) && !p.at(token.BY) && !p.at(token.OVER) {
		a, err := p.Expr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.at(token.COMMA) {
			break
		}
		p.next()
	}
	var by []ast.Expr
	var over ast.Expr
	if p.at(token.BY) {
		p.next()
		for {
			g, err := p.Expr()
			if err != nil {
				return nil, err
			}
			by = append(by, g)
			if !p.at(token.COMMA) {
				break
			}
			p.next()
		}
	}
	if p.at(token.OVER) {
		p.next()
		var err error
		if over, err = p.Expr(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	if by != nil || over != nil {
		if len(args) != 1 {
			return nil, p.errf("aggregate %s with by/over takes exactly one argument", name)
		}
		return &ast.Aggregate{Position: pos, Op: name, Arg: args[0], By: by, Over: over}, nil
	}
	return &ast.Call{Position: pos, Name: name, Args: args}, nil
}

// pathFrom continues parsing a path whose root identifier was consumed.
func (p *Parser) pathFrom(pos ast.Position, root string) (ast.Expr, error) {
	pa := &ast.Path{Position: pos, Root: root}
	var err error
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
		// Lookahead for method call: ".Name(" becomes a Call with the path
		// so far as receiver.
		if p.pos+2 < len(p.toks) &&
			p.toks[p.pos+1].Kind == token.IDENT &&
			p.toks[p.pos+2].Kind == token.LPAREN {
			p.next() // .
			mpos := p.posn()
			mname := p.next().Text
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			var recv ast.Expr = pa
			call := &ast.Call{Position: mpos, Recv: recv, Name: mname, Args: args}
			// Further chaining handled by postfixExpr.
			return call, nil
		}
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
