package hoalg

import (
	"fmt"
	"strconv"

	"repro/internal/predicate"
)

// ParseError is a structured syntax error: Pos is the byte offset into the
// input where parsing failed.
type ParseError struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("hoalg: parse error at offset %d: %s", e.Pos, e.Msg)
}

// maxParseDepth bounds expression nesting so adversarial inputs (e.g. a
// thousand '!'s) fail with a ParseError instead of exhausting the stack.
const maxParseDepth = 64

// maxArg bounds numeric atom arguments; model parameters are process or
// round counts, never millions.
const maxArg = 1 << 16

// Parse reads the canonical expression syntax back into an *Expr:
//
//	expr    := or
//	or      := and ('|' and)*
//	and     := unary ('&' unary)*
//	unary   := '!' unary | primary
//	primary := '(' expr ')'
//	         | 'forever' '(' expr ')'
//	         | 'eventually' '(' NUM ',' expr ')'
//	         | ATOM [ '(' NUM (',' NUM)* ')' ]
//
// Parse(e.String()) reproduces e exactly for every constructed e.
func Parse(s string) (*Expr, error) {
	p := &parser{src: s}
	e, err := p.or(0)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, p.errf("unexpected %q after expression", rune(p.src[p.pos]))
	}
	return e, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it, or 0 at EOF.
func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) expect(c byte) error {
	if p.peek() != c {
		if p.pos >= len(p.src) {
			return p.errf("expected %q, got end of input", rune(c))
		}
		return p.errf("expected %q, got %q", rune(c), rune(p.src[p.pos]))
	}
	p.pos++
	return nil
}

func (p *parser) ident() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c < 'a' || c > 'z' {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

func (p *parser) number() (int, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected a number")
	}
	text := p.src[start:p.pos]
	n, err := strconv.Atoi(text)
	if err != nil || n > maxArg {
		p.pos = start
		return 0, p.errf("number %s out of range (max %d)", text, maxArg)
	}
	return n, nil
}

func (p *parser) or(depth int) (*Expr, error) {
	if depth > maxParseDepth {
		return nil, p.errf("expression nests deeper than %d levels", maxParseDepth)
	}
	e, err := p.and(depth + 1)
	if err != nil {
		return nil, err
	}
	kids := []*Expr{e}
	for p.peek() == '|' {
		p.pos++
		k, err := p.and(depth + 1)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return nary(OpOr, kids), nil
}

func (p *parser) and(depth int) (*Expr, error) {
	if depth > maxParseDepth {
		return nil, p.errf("expression nests deeper than %d levels", maxParseDepth)
	}
	e, err := p.unary(depth + 1)
	if err != nil {
		return nil, err
	}
	kids := []*Expr{e}
	for p.peek() == '&' {
		p.pos++
		k, err := p.unary(depth + 1)
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	return nary(OpAnd, kids), nil
}

func (p *parser) unary(depth int) (*Expr, error) {
	if depth > maxParseDepth {
		return nil, p.errf("expression nests deeper than %d levels", maxParseDepth)
	}
	if p.peek() == '!' {
		p.pos++
		k, err := p.unary(depth + 1)
		if err != nil {
			return nil, err
		}
		return Not(k), nil
	}
	return p.primary(depth + 1)
}

func (p *parser) primary(depth int) (*Expr, error) {
	if depth > maxParseDepth {
		return nil, p.errf("expression nests deeper than %d levels", maxParseDepth)
	}
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		e, err := p.or(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return e, nil
	case c >= 'a' && c <= 'z':
		return p.call(depth)
	case c == 0:
		return nil, p.errf("expected an expression, got end of input")
	default:
		return nil, p.errf("expected an expression, got %q", rune(c))
	}
}

func (p *parser) call(depth int) (*Expr, error) {
	namePos := p.pos
	name := p.ident()
	switch name {
	case "forever":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		e, err := p.or(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return Forever(e), nil
	case "eventually":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		stab, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expect(','); err != nil {
			return nil, err
		}
		e, err := p.or(depth + 1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return Eventually(stab, e), nil
	}
	kind, ok := predicate.AtomByName(name)
	if !ok {
		p.pos = namePos
		if name == "" {
			return nil, p.errf("expected an atom name")
		}
		return nil, p.errf("unknown atom %q (known: %s)", name, atomNames())
	}
	arity := kind.Arity()
	if arity == 0 {
		if p.peek() == '(' {
			return nil, p.errf("atom %q takes no arguments", name)
		}
		return atom(kind), nil
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	args := make([]int, 0, arity)
	for i := 0; i < arity; i++ {
		if i > 0 {
			if err := p.expect(','); err != nil {
				return nil, err
			}
		}
		n, err := p.number()
		if err != nil {
			return nil, err
		}
		args = append(args, n)
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if kind == predicate.AtomKSet && args[0] < 1 {
		return nil, p.errf("kset requires k >= 1")
	}
	return atom(kind, args...), nil
}

// atomNames lists the atom vocabulary in a fixed order for error messages.
func atomNames() string {
	names := ""
	for k := predicate.AtomSelfTrust; k <= predicate.AtomBSys; k++ {
		if names != "" {
			names += ", "
		}
		names += k.Name()
	}
	return names
}
