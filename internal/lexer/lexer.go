// Package lexer tokenizes Preference SQL source text: the SQL92 subset the
// engine supports plus the preference extensions of the paper (PREFERRING,
// GROUPING, BUT ONLY, CASCADE, AROUND, LOWEST, HIGHEST, ...).
package lexer

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Type classifies a token.
type Type uint8

// Token types.
const (
	EOF Type = iota
	Ident
	Keyword
	Number
	String // single-quoted SQL string literal, unescaped content
	Op     // operator or punctuation: = <> < <= > >= + - * / ( ) , ; . [ ]
	Param  // positional bind parameter: '?' (Text empty) or '$n' (Text = digits)
)

func (t Type) String() string {
	switch t {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case Keyword:
		return "keyword"
	case Number:
		return "number"
	case String:
		return "string"
	case Op:
		return "operator"
	case Param:
		return "parameter"
	}
	return "token"
}

// Token is one lexical unit. Text holds the raw form except for String
// tokens, where it holds the unescaped content. Keywords are upper-cased.
type Token struct {
	Type Type
	Text string
	Pos  int // byte offset in the input, for error messages
}

// keywords is the set of reserved words. Everything else lexes as Ident.
// Function names (COUNT, ABS, ...) are deliberately not keywords.
var keywords = map[string]bool{
	// Standard SQL.
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "AND": true,
	"OR": true, "NOT": true, "IN": true, "LIKE": true, "BETWEEN": true,
	"IS": true, "NULL": true, "EXISTS": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "AS": true, "DISTINCT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "TABLE": true, "VIEW": true, "INDEX": true,
	"DROP": true, "JOIN": true, "INNER": true, "LEFT": true, "OUTER": true,
	"CROSS": true, "ON": true, "LIMIT": true, "OFFSET": true, "UNION": true,
	"ALL": true, "TRUE": true, "FALSE": true, "PRIMARY": true, "KEY": true,
	"INTEGER": true, "INT": true, "FLOAT": true, "REAL": true, "DOUBLE": true,
	"VARCHAR": true, "CHAR": true, "TEXT": true, "BOOLEAN": true, "DATE": true,
	"DEFAULT": true, "UNIQUE": true, "IF": true,
	// Preference SQL extensions.
	"PREFERRING": true, "GROUPING": true, "BUT": true, "ONLY": true,
	"PREFERENCE": true,
	"CASCADE":    true, "AROUND": true, "LOWEST": true, "HIGHEST": true,
	"POS": true, "NEG": true, "CONTAINS": true, "EXPLICIT": true,
	"TOP": true, "LEVEL": true, "DISTANCE": true, "REGULAR": true,
	"SUBSCRIBE": true,
}

// IsKeyword reports whether the upper-cased word is reserved.
func IsKeyword(w string) bool { return keywords[strings.ToUpper(w)] }

// Lexer scans an input string into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Error describes a lexical error with its byte offset.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("syntax error at offset %d: %s", e.Pos, e.Msg) }

// All tokenizes the entire input, appending a final EOF token.
func (l *Lexer) All() ([]Token, error) {
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Type == EOF {
			return toks, nil
		}
	}
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	if l.pos >= len(l.src) {
		return Token{Type: EOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	r, _ := l.rune()
	switch {
	case isIdentStart(r):
		return l.lexWord(start), nil
	case c >= '0' && c <= '9':
		return l.lexNumber(start)
	case c == '.':
		if l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			return l.lexNumber(start)
		}
		l.pos++
		return Token{Type: Op, Text: ".", Pos: start}, nil
	case c == '\'':
		return l.lexString(start)
	case c == '"':
		return l.lexQuotedIdent(start)
	case c == '?':
		l.pos++
		return Token{Type: Param, Pos: start}, nil
	case c == '$':
		return l.lexDollarParam(start)
	default:
		return l.lexOp(start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// rune decodes the UTF-8 character at pos and its width: utf8.RuneError,
// which no identifier holds, for an invalid byte.
func (l *Lexer) rune() (rune, int) { return utf8.DecodeRuneInString(l.src[l.pos:]) }

func (l *Lexer) lexWord(start int) Token {
	for l.pos < len(l.src) {
		r, n := l.rune()
		if !isIdentPart(r) {
			break
		}
		l.pos += n
	}
	word := l.src[start:l.pos]
	if IsKeyword(word) {
		return Token{Type: Keyword, Text: strings.ToUpper(word), Pos: start}
	}
	return Token{Type: Ident, Text: word, Pos: start}
}

func (l *Lexer) lexNumber(start int) (Token, error) {
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos+1 < len(l.src) &&
			(isDigit(l.src[l.pos+1]) || ((l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') && l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2]))):
			seenExp = true
			l.pos++
			if l.src[l.pos] == '+' || l.src[l.pos] == '-' {
				l.pos++
			}
		default:
			return Token{Type: Number, Text: l.src[start:l.pos], Pos: start}, nil
		}
	}
	return Token{Type: Number, Text: l.src[start:l.pos], Pos: start}, nil
}

func (l *Lexer) lexString(start int) (Token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Type: String, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated string literal"}
}

func (l *Lexer) lexQuotedIdent(start int) (Token, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			if b.Len() == 0 {
				return Token{}, &Error{Pos: start, Msg: "zero-length quoted identifier"}
			}
			return Token{Type: Ident, Text: b.String(), Pos: start}, nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated quoted identifier"}
}

// lexDollarParam scans a '$n' positional parameter (n = 1-based position).
func (l *Lexer) lexDollarParam(start int) (Token, error) {
	l.pos++ // '$'
	ds := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == ds {
		return Token{}, &Error{Pos: start, Msg: "expected digits after '$' (positional parameter)"}
	}
	return Token{Type: Param, Text: l.src[ds:l.pos], Pos: start}, nil
}

var twoCharOps = map[string]bool{"<>": true, "<=": true, ">=": true, "!=": true, "||": true}

func (l *Lexer) lexOp(start int) (Token, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharOps[two] {
			l.pos += 2
			if two == "!=" {
				two = "<>"
			}
			return Token{Type: Op, Text: two, Pos: start}, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', ';', '[', ']', '%':
		l.pos++
		return Token{Type: Op, Text: string(c), Pos: start}, nil
	}
	return Token{}, &Error{Pos: start, Msg: fmt.Sprintf("unexpected character %q", c)}
}
