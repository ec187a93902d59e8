// Package jsvm implements a small JavaScript-like language: lexer, parser,
// a compiler from the syntax tree to Go closures, and the interpreter
// that runs them with host-object bindings.
//
// Fingerprinting scripts in this repository are real source text executed
// by this VM against DOM/canvas host objects, exactly so that the crawler
// can intercept Canvas API calls *with script attribution* and so that
// evasion techniques (bundling a vendor script into first-party
// JavaScript) are literal source-level operations, as they are on the Web.
//
// The dialect covers the subset production fingerprinting scripts use:
// var/let/const, functions and closures, if/else, for, while, arrays,
// object literals, property access, new, arithmetic/logical operators,
// string methods, Math, and JSON.stringify. It is deliberately not a full
// ECMAScript implementation.
package jsvm

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexical tokens.
type tokenKind uint8

const (
	tEOF tokenKind = iota
	tIdent
	tNumber
	tString
	tPunct
	tKeyword
)

var keywords = map[string]bool{
	"var": true, "let": true, "const": true, "function": true,
	"return": true, "if": true, "else": true, "for": true, "while": true,
	"break": true, "continue": true, "new": true, "typeof": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"throw": true, "in": true, "of": true, "do": true,
	"try": true, "catch": true, "finally": true,
}

// token is one lexical token and the byte offset where it starts: the
// parser slices a function's source text by offsets, and lexer and
// parser errors derive their line and column from one (syntaxError).
type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// SyntaxError describes a lexing or parsing failure.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsvm: syntax error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// syntaxError reports msg at byte offset pos of src, as a 1-based line
// and a column counted in bytes.
func syntaxError(src string, pos int, msg string) error {
	before := src[:pos]
	line := 1 + strings.Count(before, "\n")
	return &SyntaxError{line, pos - strings.LastIndexByte(before, '\n'), msg}
}

// punctuators, longest first so maximal munch works.
var punctuators = []string{
	"===", "!==", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "=>", "<<", ">>", "&=", "|=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "?", ":",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "&", "|", "^", "~",
}

// punctsByFirst lists the punctuators by their first byte, each list in
// punctuators' longest-first order.
var punctsByFirst = func() (t [256][]string) {
	for _, p := range punctuators {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

// punct returns the longest punctuator s starts with, or "".
func punct(s string) string {
	for _, p := range punctsByFirst[s[0]] {
		if strings.HasPrefix(s, p) {
			return p
		}
	}
	return ""
}

// lex tokenizes src, stripping // and /* */ comments.
func lex(src string) ([]token, error) { return lexWith(src, punct) }

// lexWith is lex with the punctuator matcher as a parameter, so that a
// test can compare punct with the list scan it replaced.
func lexWith(src string, match func(string) string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)

	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			start := i
			i += 2
			closed := false
			for i+1 < n {
				if src[i] == '*' && src[i+1] == '/' {
					i += 2
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, syntaxError(src, start, "unterminated block comment")
			}
		case c == '"' || c == '\'':
			start := i
			quote := c
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				ch := src[i]
				if ch == '\\' && i+1 < n {
					esc := src[i+1]
					i += 2
					switch esc {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case 'r':
						sb.WriteByte('\r')
					case '\\':
						sb.WriteByte('\\')
					case '\'':
						sb.WriteByte('\'')
					case '"':
						sb.WriteByte('"')
					case '0':
						sb.WriteByte(0)
					case 'u':
						// \uXXXX escape
						if i+4 <= n {
							var r rune
							ok := true
							for k := 0; k < 4; k++ {
								r <<= 4
								d := src[i+k]
								switch {
								case d >= '0' && d <= '9':
									r |= rune(d - '0')
								case d >= 'a' && d <= 'f':
									r |= rune(d-'a') + 10
								case d >= 'A' && d <= 'F':
									r |= rune(d-'A') + 10
								default:
									ok = false
								}
							}
							if ok {
								sb.WriteRune(r)
								i += 4
							} else {
								sb.WriteByte('u')
							}
						} else {
							sb.WriteByte('u')
						}
					default:
						sb.WriteByte(esc)
					}
					continue
				}
				if ch == quote {
					i++
					closed = true
					break
				}
				if ch == '\n' {
					return nil, syntaxError(src, start, "unterminated string")
				}
				sb.WriteByte(ch)
				i++
			}
			if !closed {
				return nil, syntaxError(src, start, "unterminated string")
			}
			toks = append(toks, token{tString, sb.String(), start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			j := i
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				j = i + 2
				for j < n && isHexDigit(src[j]) {
					j++
				}
			} else {
				seenDot, seenExp := false, false
				for j < n {
					d := src[j]
					if d >= '0' && d <= '9' {
						j++
					} else if d == '.' && !seenDot && !seenExp {
						seenDot = true
						j++
					} else if (d == 'e' || d == 'E') && !seenExp {
						seenExp = true
						j++
						if j < n && (src[j] == '+' || src[j] == '-') {
							j++
						}
					} else {
						break
					}
				}
			}
			text := src[i:j]
			i = j
			toks = append(toks, token{tNumber, text, start})
		case isIdentStart(c):
			start := i
			j := i
			for j < n && isIdentPart(src[j]) {
				j++
			}
			text := src[i:j]
			i = j
			kind := tIdent
			if keywords[text] {
				kind = tKeyword
			}
			toks = append(toks, token{kind, text, start})
		default:
			p := match(src[i:])
			if p == "" {
				return nil, syntaxError(src, i, fmt.Sprintf("unexpected character %q", c))
			}
			toks = append(toks, token{tPunct, p, i})
			i += len(p)
		}
	}
	toks = append(toks, token{tEOF, "", n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
