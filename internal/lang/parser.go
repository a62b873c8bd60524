package lang

import (
	"fmt"
	"strconv"
)

// Parse parses a mini-C translation unit.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for !p.at(tokEOF, "") {
		if p.err != nil {
			return nil, p.err
		}
		if p.at(tokIdent, "struct") && p.peekIs(2, tokPunct, "{") {
			prog.Structs = append(prog.Structs, p.structDecl())
			continue
		}
		prog.Funcs = append(prog.Funcs, p.funcDecl())
	}
	if p.err != nil {
		return nil, p.err
	}
	return prog, nil
}

type parser struct {
	toks []token
	i    int
	err  error
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

// peekIs looks n tokens ahead.
func (p *parser) peekIs(n int, k tokKind, text string) bool {
	if p.i+n >= len(p.toks) {
		return false
	}
	t := p.toks[p.i+n]
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("lang: %s: %s", p.cur().pos, fmt.Sprintf(format, args...))
	}
}

func (p *parser) expect(k tokKind, text string) token {
	if !p.at(k, text) {
		p.fail("expected %q, found %q", text, p.cur().text)
		return p.cur()
	}
	return p.advance()
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.advance()
		return true
	}
	return false
}

// atType reports whether the current token starts a type.
func (p *parser) atType() bool {
	return p.at(tokIdent, "int") || p.at(tokIdent, "float") ||
		p.at(tokIdent, "void") || p.at(tokIdent, "struct")
}

func (p *parser) parseType() Type {
	switch {
	case p.accept(tokIdent, "int"):
		return Type{Kind: TypeInt}
	case p.accept(tokIdent, "float"):
		return Type{Kind: TypeFloat}
	case p.accept(tokIdent, "void"):
		return Type{Kind: TypeVoid}
	case p.accept(tokIdent, "struct"):
		name := p.expect(tokIdent, "").text
		p.expect(tokPunct, "*")
		return Type{Kind: TypePtr, Struct: name}
	default:
		p.fail("expected a type, found %q", p.cur().text)
		return Type{}
	}
}

func (p *parser) structDecl() *StructDecl {
	pos := p.cur().pos
	p.expect(tokIdent, "struct")
	name := p.expect(tokIdent, "").text
	p.expect(tokPunct, "{")
	s := &StructDecl{Pos: pos, Name: name}
	for !p.at(tokPunct, "}") && p.err == nil {
		fpos := p.cur().pos
		ft := p.parseType()
		fname := p.expect(tokIdent, "").text
		aff := -1
		if p.accept(tokIdent, "__affinity") {
			p.expect(tokPunct, "(")
			// Any integer parses; range checking ([0,100]) is a lint
			// diagnostic (core.Lint), so out-of-range hints get a
			// positioned error instead of a parse failure.
			v, err := strconv.Atoi(p.expect(tokInt, "").text)
			if err != nil {
				p.fail("affinity must be an integer percentage")
			}
			aff = v
			p.expect(tokPunct, ")")
		}
		p.expect(tokPunct, ";")
		s.Fields = append(s.Fields, &FieldDecl{Pos: fpos, Name: fname, Type: ft, Affinity: aff})
	}
	p.expect(tokPunct, "}")
	p.expect(tokPunct, ";")
	return s
}

func (p *parser) funcDecl() *FuncDecl {
	pos := p.cur().pos
	ret := p.parseType()
	name := p.expect(tokIdent, "").text
	p.expect(tokPunct, "(")
	f := &FuncDecl{Pos: pos, Name: name, Ret: ret}
	if !p.at(tokPunct, ")") {
		if p.at(tokIdent, "void") && p.peekIs(1, tokPunct, ")") {
			p.advance()
		} else {
			for {
				ppos := p.cur().pos
				pt := p.parseType()
				pname := p.expect(tokIdent, "").text
				f.Params = append(f.Params, &Param{Pos: ppos, Name: pname, Type: pt})
				if !p.accept(tokPunct, ",") {
					break
				}
			}
		}
	}
	p.expect(tokPunct, ")")
	f.Body = p.block()
	return f
}

func (p *parser) block() *Block {
	pos := p.cur().pos
	p.expect(tokPunct, "{")
	b := &Block{Pos: pos}
	for !p.at(tokPunct, "}") && !p.at(tokEOF, "") && p.err == nil {
		b.Stmts = append(b.Stmts, p.stmt())
	}
	p.expect(tokPunct, "}")
	return b
}

func (p *parser) stmt() Stmt {
	pos := p.cur().pos
	switch {
	case p.at(tokPunct, "{"):
		return p.block()
	case p.atType():
		t := p.parseType()
		name := p.expect(tokIdent, "").text
		var init Expr
		if p.accept(tokPunct, "=") {
			init = p.expr()
		}
		p.expect(tokPunct, ";")
		return &VarDecl{Pos: pos, Name: name, Type: t, Init: init}
	case p.accept(tokIdent, "if"):
		p.expect(tokPunct, "(")
		cond := p.expr()
		p.expect(tokPunct, ")")
		then := p.stmt()
		var els Stmt
		if p.accept(tokIdent, "else") {
			els = p.stmt()
		}
		return &If{Pos: pos, Cond: cond, Then: then, Else: els}
	case p.accept(tokIdent, "while"):
		p.expect(tokPunct, "(")
		cond := p.expr()
		p.expect(tokPunct, ")")
		return &While{Pos: pos, Cond: cond, Body: p.stmt()}
	case p.accept(tokIdent, "for"):
		p.expect(tokPunct, "(")
		var init, post Stmt
		var cond Expr
		if !p.at(tokPunct, ";") {
			init = p.simpleStmt()
		}
		p.expect(tokPunct, ";")
		if !p.at(tokPunct, ";") {
			cond = p.expr()
		}
		p.expect(tokPunct, ";")
		if !p.at(tokPunct, ")") {
			post = p.simpleStmt()
		}
		p.expect(tokPunct, ")")
		return &For{Pos: pos, Init: init, Cond: cond, Post: post, Body: p.stmt()}
	case p.accept(tokIdent, "return"):
		var e Expr
		if !p.at(tokPunct, ";") {
			e = p.expr()
		}
		p.expect(tokPunct, ";")
		return &Return{Pos: pos, E: e}
	default:
		s := p.simpleStmt()
		p.expect(tokPunct, ";")
		return s
	}
}

// simpleStmt is an assignment or an expression statement (no semicolon).
func (p *parser) simpleStmt() Stmt {
	pos := p.cur().pos
	e := p.expr()
	if p.accept(tokPunct, "=") {
		rhs := p.expr()
		switch e.(type) {
		case *Ident, *Arrow:
		default:
			p.fail("invalid assignment target")
		}
		return &Assign{Pos: pos, LHS: e, RHS: rhs}
	}
	return &ExprStmt{Pos: pos, E: e}
}

// binary operator precedence, low to high.
var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() Expr { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) Expr {
	lhs := p.unary()
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs
		}
		prec, ok := precedence[t.text]
		if !ok || prec < minPrec {
			return lhs
		}
		p.advance()
		rhs := p.binExpr(prec + 1)
		lhs = &Binary{Pos: t.pos, Op: t.text, L: lhs, R: rhs}
	}
}

func (p *parser) unary() Expr {
	pos := p.cur().pos
	if p.accept(tokPunct, "!") {
		return &Unary{Pos: pos, Op: "!", X: p.unary()}
	}
	if p.accept(tokPunct, "-") {
		return &Unary{Pos: pos, Op: "-", X: p.unary()}
	}
	return p.postfix()
}

func (p *parser) postfix() Expr {
	e := p.primary()
	for p.at(tokPunct, "->") {
		pos := p.advance().pos
		f := p.expect(tokIdent, "").text
		e = &Arrow{Pos: pos, X: e, Field: f}
	}
	return e
}

func (p *parser) primary() Expr {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.advance()
		v, _ := strconv.ParseInt(t.text, 10, 64)
		return &IntLit{Pos: t.pos, V: v}
	case t.kind == tokFloat:
		p.advance()
		v, _ := strconv.ParseFloat(t.text, 64)
		return &FloatLit{Pos: t.pos, V: v}
	case p.accept(tokPunct, "("):
		e := p.expr()
		p.expect(tokPunct, ")")
		return e
	case t.kind == tokIdent:
		switch t.text {
		case "NULL":
			p.advance()
			return &Null{Pos: t.pos}
		case "futurecall":
			p.advance()
			p.expect(tokPunct, "(")
			inner := p.postfix()
			call, ok := inner.(*Call)
			if !ok {
				p.fail("futurecall requires a function call")
				call = &Call{Pos: t.pos}
			}
			call.Future = true
			p.expect(tokPunct, ")")
			return call
		case "touch":
			p.advance()
			p.expect(tokPunct, "(")
			e := p.expr()
			p.expect(tokPunct, ")")
			return &Touch{Pos: t.pos, E: e}
		}
		p.advance()
		if p.accept(tokPunct, "(") {
			c := &Call{Pos: t.pos, Name: t.text}
			if !p.at(tokPunct, ")") {
				for {
					c.Args = append(c.Args, p.expr())
					if !p.accept(tokPunct, ",") {
						break
					}
				}
			}
			p.expect(tokPunct, ")")
			return c
		}
		return &Ident{Pos: t.pos, Name: t.text}
	default:
		p.fail("unexpected token %q", t.text)
		p.advance()
		return &IntLit{Pos: t.pos}
	}
}
