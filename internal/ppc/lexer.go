package ppc

import (
	"strconv"
	"strings"
)

// lexer turns PPC source text into tokens. It supports //-comments,
// /* */ comments, decimal and hexadecimal integer literals.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) nextByte() byte {
	c := lx.peekByte()
	if c == 0 {
		return 0
	}
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// next returns the next token, or an error for malformed input.
func (lx *lexer) next() (Token, error) {
	for {
		c := lx.peekByte()
		switch {
		case c == 0:
			return Token{Kind: EOF, Pos: lx.pos()}, nil
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.nextByte()
			continue
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/':
			for lx.peekByte() != 0 && lx.peekByte() != '\n' {
				lx.nextByte()
			}
			continue
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '*':
			pos := lx.pos()
			lx.nextByte()
			lx.nextByte()
			closed := false
			for lx.peekByte() != 0 {
				if lx.nextByte() == '*' && lx.peekByte() == '/' {
					lx.nextByte()
					closed = true
					break
				}
			}
			if !closed {
				return Token{}, errf(pos, "unterminated block comment")
			}
			continue
		}
		break
	}

	pos := lx.pos()
	c := lx.peekByte()
	switch {
	case isIdentStart(c):
		start := lx.off
		for isIdentCont(lx.peekByte()) {
			lx.nextByte()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Pos: pos, Text: text}, nil
		}
		return Token{Kind: IDENT, Pos: pos, Text: text}, nil

	case isDigit(c):
		start := lx.off
		if c == '0' && lx.off+1 < len(lx.src) && (lx.src[lx.off+1] == 'x' || lx.src[lx.off+1] == 'X') {
			lx.nextByte()
			lx.nextByte()
			for isHexDigit(lx.peekByte()) {
				lx.nextByte()
			}
		} else {
			for isDigit(lx.peekByte()) {
				lx.nextByte()
			}
		}
		text := lx.src[start:lx.off]
		v, err := strconv.ParseInt(strings.ToLower(text), 0, 64)
		if err != nil {
			return Token{}, errf(pos, "bad integer literal %q", text)
		}
		return Token{Kind: INT, Pos: pos, Val: v, Text: text}, nil
	}

	// Operators and punctuation (longest match first; the second character
	// of a two-character operator is an operator of its own).
	if lx.off+1 < len(lx.src) && oneKinds[lx.src[lx.off+1]] != EOF {
		two := lx.src[lx.off : lx.off+2]
		if k, ok := twoKinds[two]; ok {
			lx.nextByte()
			lx.nextByte()
			return Token{Kind: k, Pos: pos, Text: two}, nil
		}
	}
	if k := oneKinds[c]; k != EOF {
		lx.nextByte()
		return Token{Kind: k, Pos: pos, Text: lx.src[lx.off-1 : lx.off]}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// The operators and punctuation, built once: two-character ones by
// spelling, one-character ones by byte (EOF where the byte is none).
var (
	twoKinds = map[string]Kind{
		"||": OrOr, "&&": AndAnd, "==": EqEq, "!=": NotEq, "<=": Le,
		">=": Ge, "<<": Shl, ">>": Shr, "+=": PlusAssign, "-=": MinusAssign,
		"*=": StarAssign, "/=": SlashAssign, "%=": PercentAssign,
	}
	oneKinds = [256]Kind{
		'(': LParen, ')': RParen, '{': LBrace, '}': RBrace, '[': LBrack,
		']': RBrack, ';': Semi, ',': Comma, ':': Colon, '?': Question,
		'=': Assign, '|': Pipe, '^': Caret, '&': Amp, '<': Lt, '>': Gt,
		'+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent,
		'!': Bang, '~': Tilde,
	}
)

// lexAll tokenizes the entire source.
func lexAll(src string) ([]Token, error) {
	lx := newLexer(src)
	toks := make([]Token, 0, len(src)/4)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
