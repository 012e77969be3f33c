package relay

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"duet/internal/graph"
)

// Parse reads a module in the package grammar. It returns a descriptive
// error (with byte offset) on malformed input.
func Parse(src string) (*Module, error) {
	p := &parser{src: src}
	m, err := p.module()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input")
	}
	return m, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("relay: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			p.pos++
			continue
		}
		// Line comments: // ... \n
		if c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		break
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// expect consumes each token in turn, skipping whitespace before each.
func (p *parser) expect(toks ...string) error {
	for _, tok := range toks {
		p.skipSpace()
		if !strings.HasPrefix(p.src[p.pos:], tok) {
			return p.errf("expected %q", tok)
		}
		p.pos += len(tok)
	}
	return nil
}

// list parses comma-separated items up to and including close.
func (p *parser) list(close string, item func() error) error {
	for n := 0; !p.accept(close); n++ {
		if n > 0 {
			if err := p.expect(","); err != nil {
				return err
			}
		}
		if err := item(); err != nil {
			return err
		}
	}
	return nil
}

// ref reads a %name reference.
func (p *parser) ref() (string, error) {
	if err := p.expect("%"); err != nil {
		return "", err
	}
	return p.ident()
}

func (p *parser) accept(tok string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], tok) {
		p.pos += len(tok)
		return true
	}
	return false
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return p.src[start:p.pos], nil
}

func isIdentByte(c byte) bool {
	r := rune(c)
	return unicode.IsLetter(r) || unicode.IsDigit(r) || c == '_' || c == '.'
}

// isIdent reports whether s reparses as one ident token.
func isIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		if !isIdentByte(s[i]) {
			return false
		}
	}
	return s != ""
}

func (p *parser) int() (int, error) {
	p.skipSpace()
	start := p.pos
	if p.peek() == '-' {
		p.pos++
	}
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start || (p.pos == start+1 && p.src[start] == '-') {
		return 0, p.errf("expected integer")
	}
	return strconv.Atoi(p.src[start:p.pos])
}

func (p *parser) module() (*Module, error) {
	if err := p.expect("fn", "("); err != nil {
		return nil, err
	}
	m := &Module{}
	err := p.list(")", func() error {
		param, err := p.param()
		m.Params = append(m.Params, param)
		return err
	})
	if err == nil {
		err = p.expect("{")
	}
	if err != nil {
		return nil, err
	}
	for {
		p.skipSpace()
		if p.peek() == '(' {
			break // tuple result
		}
		if p.peek() != '%' {
			return nil, p.errf("expected binding or result")
		}
		// Distinguish binding (%name = ...) from result (%name) / (tuple).
		save := p.pos
		p.pos++
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.accept("=") {
			b, err := p.bindingTail(name)
			if err != nil {
				return nil, err
			}
			m.Bindings = append(m.Bindings, b)
			continue
		}
		// Single-name result.
		p.pos = save
		break
	}
	// Result: %name or ( %a, %b, ... ).
	p.skipSpace()
	if p.accept("(") {
		for !p.accept(")") {
			if len(m.Results) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
				// allow trailing comma
				if p.accept(")") {
					break
				}
			}
			name, err := p.ref()
			if err != nil {
				return nil, err
			}
			m.Results = append(m.Results, name)
		}
	} else {
		name, err := p.ref()
		if err != nil {
			return nil, err
		}
		m.Results = append(m.Results, name)
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if len(m.Results) == 0 {
		return nil, p.errf("module has no results")
	}
	return m, nil
}

func (p *parser) param() (Param, error) {
	name, err := p.ref()
	if err == nil {
		err = p.expect(":", "Tensor", "[", "(")
	}
	if err != nil {
		return Param{}, err
	}
	param := Param{Name: name}
	err = p.list(")", func() error {
		d, err := p.int()
		param.Shape = append(param.Shape, d)
		return err
	})
	if err == nil {
		err = p.expect("]")
	}
	return param, err
}

func (p *parser) bindingTail(name string) (Binding, error) {
	op, err := p.ident()
	if err == nil {
		err = p.expect("(")
	}
	if err != nil {
		return Binding{}, err
	}
	b := Binding{Name: name, Op: op, Attrs: graph.Attrs{}}
	err = p.list(")", func() error {
		p.skipSpace()
		c := p.peek()
		if c != '%' && c != '@' {
			return p.errf("expected %%ref or @const argument")
		}
		p.pos++
		arg, err := p.ident()
		b.Args = append(b.Args, Arg{Name: arg, IsConst: c == '@'})
		return err
	})
	if err == nil && p.accept("{") {
		err = p.list("}", func() error {
			key, err := p.ident()
			if err == nil {
				err = p.expect("=")
			}
			if err == nil {
				b.Attrs[key], err = p.attrValue()
			}
			return err
		})
	}
	if err == nil {
		err = p.expect(";")
	}
	return b, err
}

func (p *parser) attrValue() (interface{}, error) {
	p.skipSpace()
	switch {
	case p.peek() == '[':
		p.pos++
		var xs []int
		err := p.list("]", func() error {
			v, err := p.int()
			xs = append(xs, v)
			return err
		})
		return xs, err
	case p.peek() == '"':
		q, err := strconv.QuotedPrefix(p.src[p.pos:])
		if err != nil {
			return nil, p.errf("bad string literal")
		}
		p.pos += len(q)
		return strconv.Unquote(q)
	default:
		return p.int()
	}
}
