package ppc

import (
	"strconv"
	"strings"
	"testing"
)

// oracleLexer is the lexer as it was when it built its operator maps on
// every token: next below is that method, kept verbatim as the reference
// FuzzLexer holds the production lexer to.
type oracleLexer struct{ lexer }

// next returns the next token, or an error for malformed input.
func (lx *oracleLexer) next() (Token, error) {
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

	// Operators and punctuation (longest match first).
	two := ""
	if lx.off+1 < len(lx.src) {
		two = lx.src[lx.off : lx.off+2]
	}
	twoKinds := map[string]Kind{
		"||": OrOr, "&&": AndAnd, "==": EqEq, "!=": NotEq, "<=": Le,
		">=": Ge, "<<": Shl, ">>": Shr, "+=": PlusAssign, "-=": MinusAssign,
		"*=": StarAssign, "/=": SlashAssign, "%=": PercentAssign,
	}
	if k, ok := twoKinds[two]; ok {
		lx.nextByte()
		lx.nextByte()
		return Token{Kind: k, Pos: pos, Text: two}, nil
	}
	oneKinds := map[byte]Kind{
		'(': LParen, ')': RParen, '{': LBrace, '}': RBrace, '[': LBrack,
		']': RBrack, ';': Semi, ',': Comma, ':': Colon, '?': Question,
		'=': Assign, '|': Pipe, '^': Caret, '&': Amp, '<': Lt, '>': Gt,
		'+': Plus, '-': Minus, '*': Star, '/': Slash, '%': Percent,
		'!': Bang, '~': Tilde,
	}
	if k, ok := oneKinds[c]; ok {
		lx.nextByte()
		return Token{Kind: k, Pos: pos, Text: string(c)}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// FuzzLexer holds the lexer to the oracle on arbitrary input: the same
// tokens (kind, position, text and value) in the same order, or the same
// error at the same token.
func FuzzLexer(f *testing.F) {
	for _, s := range []string{
		"pps P { loop { var a = 0x1F; a += a << 2; } }",
		"|| && == != <= >= << >> += -= *= /= %= ( ) { } [ ] ; , : ? = | ^ & < > + - * / % ! ~",
		"a // line\n /* block\n */ b", "/* unterminated", "0x", "99999999999999999999", "a $ b", "x\x00y",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lx, ox := newLexer(src), &oracleLexer{*newLexer(src)}
		for i := 0; ; i++ {
			got, gerr := lx.next()
			want, werr := ox.next()
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("token %d of %q: error %v, oracle's %v", i, src, gerr, werr)
			}
			if got != want {
				t.Fatalf("token %d of %q: %+v, oracle's %+v", i, src, got, want)
			}
			if gerr != nil || got.Kind == EOF {
				return
			}
		}
	})
}
