// Package sql implements the SQL dialect of the engine: a hand-written
// lexer and recursive-descent parser for SELECT statements extended with
// the paper's SKYLINE OF clause (Listing 3/5):
//
//	SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ...
//	SKYLINE OF [DISTINCT] [COMPLETE] d1 {MIN|MAX|DIFF}, ..., dm {MIN|MAX|DIFF}
//	ORDER BY ... LIMIT ...
//
// The skyline clause sits after HAVING and before ORDER BY, exactly as in
// the paper's ANTLR grammar.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenType enumerates lexical token classes.
type TokenType int

// Token types.
const (
	tokEOF TokenType = iota
	tokIdent
	tokNumber
	tokString
	tokOp    // symbolic operator or punctuation
	tokParam // unused placeholder for future prepared statements
)

// Token is one lexical token with its source position (1-based).
type Token struct {
	Type   TokenType
	Text   string // operators and keywords verbatim; identifiers lower-cased
	Pos    int    // byte offset in the input
	Quoted bool   // true for `quoted` or "quoted" identifiers (never keywords)
}

// Lexer tokenizes a SQL string.
type Lexer struct {
	src []rune
	pos int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: []rune(src)} }

// Tokenize scans the whole input and returns the token stream, terminated
// by an EOF token.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Type == tokEOF {
			return out, nil
		}
	}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) rune {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	for l.pos < len(l.src) {
		r := l.src[l.pos]
		switch {
		case unicode.IsSpace(r):
			l.pos++
		case r == '-' && l.peekAt(1) == '-': // line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case r == '/' && l.peekAt(1) == '*': // block comment
			l.pos += 2
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peekAt(1) == '/') {
				l.pos++
			}
			if l.pos >= len(l.src) {
				return Token{}, fmt.Errorf("sql: unterminated block comment")
			}
			l.pos += 2
		default:
			return l.scanToken()
		}
	}
	return Token{Type: tokEOF, Pos: l.pos}, nil
}

func (l *Lexer) scanToken() (Token, error) {
	start := l.pos
	r := l.src[l.pos]
	switch {
	case unicode.IsLetter(r) || r == '_':
		for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
			l.pos++
		}
		return Token{Type: tokIdent, Text: strings.ToLower(string(l.src[start:l.pos])), Pos: start}, nil
	case unicode.IsDigit(r) || (r == '.' && unicode.IsDigit(l.peekAt(1))):
		seenDot, seenExp := false, false
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			switch {
			case unicode.IsDigit(c):
				l.pos++
			case c == '.' && !seenDot && !seenExp:
				seenDot = true
				l.pos++
			case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
				seenExp = true
				l.pos++
				if l.peek() == '+' || l.peek() == '-' {
					l.pos++
				}
			default:
				goto doneNum
			}
		}
	doneNum:
		return Token{Type: tokNumber, Text: string(l.src[start:l.pos]), Pos: start}, nil
	case r == '\'':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == '\'' {
				if l.peekAt(1) == '\'' { // escaped quote
					sb.WriteRune('\'')
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Type: tokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteRune(c)
			l.pos++
		}
		return Token{}, fmt.Errorf("sql: unterminated string literal at offset %d", start)
	case r == '`' || r == '"': // quoted identifier
		quote := r
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == quote {
				l.pos++
				return Token{Type: tokIdent, Text: strings.ToLower(sb.String()), Pos: start, Quoted: true}, nil
			}
			sb.WriteRune(c)
			l.pos++
		}
		return Token{}, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
	default:
		// Multi-character operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = string(l.src[l.pos : l.pos+2])
		}
		switch two {
		case "<=", ">=", "<>", "!=", "==":
			l.pos += 2
			if two == "!=" || two == "==" {
				if two == "!=" {
					two = "<>"
				} else {
					two = "="
				}
			}
			return Token{Type: tokOp, Text: two, Pos: start}, nil
		}
		switch r {
		case '(', ')', ',', '+', '-', '*', '/', '%', '=', '<', '>', '.', ';':
			l.pos++
			return Token{Type: tokOp, Text: string(r), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
	}
}
