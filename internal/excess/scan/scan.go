// Package scan tokenizes EXCESS source text.
//
// Keywords are recognized case-insensitively (QUEL heritage); identifiers
// keep their case. Comments run from "--" to end of line. Operator tokens
// are maximal runs of operator punctuation, which lets ADT designers
// introduce new operators ("any legal EXCESS identifier or sequence of
// punctuation characters", per the paper) without changing the scanner.
//
// ASCII text, which is nearly all EXCESS text, is classified by a byte
// table; other runes take the unicode package's classification.
package scan

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/excess/token"
)

// Scanner tokenizes one source string.
type Scanner struct {
	src  string
	pos  int
	line int
	col  int
}

// New returns a scanner over src.
func New(src string) *Scanner {
	return &Scanner{src: src, line: 1, col: 1}
}

// opChars are the characters that may form operator tokens.
const opChars = "+-*/%<>=!&|^~@#?$"

// ASCII byte classes.
const (
	clLetter = 1 << iota // a letter or '_': starts and continues an identifier
	clDigit
	clOp
)

var class = func() (c [utf8.RuneSelf]uint8) {
	for b := 'a'; b <= 'z'; b++ {
		c[b] |= clLetter
		c[b-'a'+'A'] |= clLetter
	}
	c['_'] |= clLetter
	for b := '0'; b <= '9'; b++ {
		c[b] |= clDigit
	}
	for _, b := range opChars {
		c[b] |= clOp
	}
	return c
}()

// punct maps the single-character punctuation tokens.
var punct = [utf8.RuneSelf]token.Kind{
	'(': token.LPAREN, ')': token.RPAREN, '{': token.LBRACE, '}': token.RBRACE,
	'[': token.LBRACKET, ']': token.RBRACKET, ',': token.COMMA, ':': token.COLON,
	';': token.SEMI, '.': token.DOT,
}

func is(r rune, cl uint8) bool { return r >= 0 && r < utf8.RuneSelf && class[r]&cl != 0 }

func isOpChar(r rune) bool { return is(r, clOp) }

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return is(r, clLetter)
	}
	return unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	if r < utf8.RuneSelf {
		return is(r, clLetter|clDigit)
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(r rune) bool {
	if r < utf8.RuneSelf {
		return is(r, clDigit)
	}
	return unicode.IsDigit(r)
}

func (s *Scanner) peek() rune {
	if s.pos >= len(s.src) {
		return -1
	}
	if c := s.src[s.pos]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(s.src[s.pos:])
	return r
}

func (s *Scanner) next() rune {
	if s.pos >= len(s.src) {
		return -1
	}
	r, w := rune(s.src[s.pos]), 1
	if r >= utf8.RuneSelf {
		r, w = utf8.DecodeRuneInString(s.src[s.pos:])
	}
	s.pos += w
	if r == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return r
}

// skipASCII advances over the run of ASCII bytes of class cl.
func (s *Scanner) skipASCII(cl uint8) {
	for s.pos < len(s.src) {
		c := s.src[s.pos]
		if c >= utf8.RuneSelf || class[c]&cl == 0 {
			return
		}
		s.pos++
		s.col++
	}
}

func (s *Scanner) skipSpace() {
	for {
		r := s.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			s.next()
		case r == '-' && strings.HasPrefix(s.src[s.pos:], "--"):
			for s.peek() != '\n' && s.peek() != -1 {
				s.next()
			}
		default:
			return
		}
	}
}

// Next returns the next token, or an error on malformed input.
func (s *Scanner) Next() (token.Token, error) {
	s.skipSpace()
	line, col := s.line, s.col
	r := s.peek()
	mk := func(k token.Kind, text string) token.Token {
		return token.Token{Kind: k, Text: text, Line: line, Col: col}
	}
	switch {
	case r == -1:
		return mk(token.EOF, ""), nil
	case isIdentStart(r):
		start := s.pos
		for {
			s.skipASCII(clLetter | clDigit)
			if !isIdentCont(s.peek()) {
				break
			}
			s.next()
		}
		word := s.src[start:s.pos]
		if k, ok := token.Lookup(word); ok {
			return mk(k, word), nil
		}
		return mk(token.IDENT, word), nil
	case isDigit(r):
		return s.number(line, col)
	case r == '"':
		return s.stringLit(line, col)
	case isOpChar(r):
		start := s.pos
		for isOpChar(s.peek()) {
			// "--" begins a comment, never an operator tail.
			if s.peek() == '-' && strings.HasPrefix(s.src[s.pos:], "--") && s.pos > start {
				break
			}
			s.next()
		}
		return mk(token.OP, s.src[start:s.pos]), nil
	}
	s.next()
	if r < utf8.RuneSelf && punct[r] != token.EOF {
		return mk(punct[r], s.src[s.pos-1:s.pos]), nil
	}
	return token.Token{}, fmt.Errorf("%d:%d: unexpected character %q", line, col, r)
}

func (s *Scanner) number(line, col int) (token.Token, error) {
	start := s.pos
	for isDigit(s.peek()) {
		s.next()
	}
	isFloat := false
	// A '.' starts a fraction only if a digit follows; otherwise it is a
	// path dot (e.g. in "TopTen[1].name" the '.' after ']' never reaches
	// here, but "1.name" should not scan as a float either).
	if s.peek() == '.' && s.pos+1 < len(s.src) && unicode.IsDigit(rune(s.src[s.pos+1])) {
		isFloat = true
		s.next()
		for isDigit(s.peek()) {
			s.next()
		}
	}
	if s.peek() == 'e' || s.peek() == 'E' {
		savePos, saveCol := s.pos, s.col
		s.next()
		if s.peek() == '+' || s.peek() == '-' {
			s.next()
		}
		if isDigit(s.peek()) {
			isFloat = true
			for isDigit(s.peek()) {
				s.next()
			}
		} else {
			s.pos, s.col = savePos, saveCol // not an exponent; back off
		}
	}
	text := s.src[start:s.pos]
	if isFloat {
		return token.Token{Kind: token.FLOAT, Text: text, Line: line, Col: col}, nil
	}
	return token.Token{Kind: token.INT, Text: text, Line: line, Col: col}, nil
}

func (s *Scanner) stringLit(line, col int) (token.Token, error) {
	s.next() // opening quote
	// A string of plain ASCII without escapes is its own source text.
	for i := s.pos; i < len(s.src); i++ {
		c := s.src[i]
		if c == '"' {
			text := s.src[s.pos:i]
			s.col += i + 1 - s.pos
			s.pos = i + 1
			return token.Token{Kind: token.STRING, Text: text, Line: line, Col: col}, nil
		}
		if c == '\\' || c == '\n' || c >= utf8.RuneSelf {
			break
		}
	}
	var b strings.Builder
	for {
		r := s.next()
		switch r {
		case -1, '\n':
			return token.Token{}, fmt.Errorf("%d:%d: unterminated string", line, col)
		case '"':
			return token.Token{Kind: token.STRING, Text: b.String(), Line: line, Col: col}, nil
		case '\\':
			e := s.next()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"':
				b.WriteRune(e)
			default:
				return token.Token{}, fmt.Errorf("%d:%d: bad escape \\%c", s.line, s.col, e)
			}
		default:
			b.WriteRune(r)
		}
	}
}

// All tokenizes the whole input.
func All(src string) ([]token.Token, error) {
	return Append(nil, src)
}

// Append tokenizes the whole input onto dst, which a caller scanning
// many texts reuses. The tokens end with EOF.
func Append(dst []token.Token, src string) ([]token.Token, error) {
	if dst == nil {
		dst = make([]token.Token, 0, len(src)/3+2)
	}
	s := New(src)
	for {
		t, err := s.Next()
		if err != nil {
			return nil, err
		}
		dst = append(dst, t)
		if t.Kind == token.EOF {
			return dst, nil
		}
	}
}
