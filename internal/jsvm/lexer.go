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

// token is one lexical token with its source position (for errors).
type token struct {
	kind tokenKind
	text string
	line int
	col  int
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

// multi-char punctuators, longest first so maximal munch works.
var punctuators = []string{
	"===", "!==", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "=>", "<<", ">>", "&=", "|=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "?", ":",
	"(", ")", "{", "}", "[", "]", ";", ",", ".", "&", "|", "^", "~",
}

// lex tokenizes src, stripping // and /* */ comments.
func lex(src string) ([]token, error) {
	var toks []token
	line, col := 1, 1
	i := 0
	n := len(src)

	advance := func(k int) {
		for j := 0; j < k; j++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}

	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			startLine, startCol := line, col
			advance(2)
			closed := false
			for i+1 < n {
				if src[i] == '*' && src[i+1] == '/' {
					advance(2)
					closed = true
					break
				}
				advance(1)
			}
			if !closed {
				return nil, &SyntaxError{startLine, startCol, "unterminated block comment"}
			}
		case c == '"' || c == '\'':
			startLine, startCol := line, col
			quote := c
			advance(1)
			var sb strings.Builder
			closed := false
			for i < n {
				ch := src[i]
				if ch == '\\' && i+1 < n {
					esc := src[i+1]
					advance(2)
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
								advance(4)
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
					advance(1)
					closed = true
					break
				}
				if ch == '\n' {
					return nil, &SyntaxError{startLine, startCol, "unterminated string"}
				}
				sb.WriteByte(ch)
				advance(1)
			}
			if !closed {
				return nil, &SyntaxError{startLine, startCol, "unterminated string"}
			}
			toks = append(toks, token{tString, sb.String(), startLine, startCol})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			startLine, startCol := line, col
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
			advance(j - i)
			toks = append(toks, token{tNumber, text, startLine, startCol})
		case isIdentStart(c):
			startLine, startCol := line, col
			j := i
			for j < n && isIdentPart(src[j]) {
				j++
			}
			text := src[i:j]
			advance(j - i)
			kind := tIdent
			if keywords[text] {
				kind = tKeyword
			}
			toks = append(toks, token{kind, text, startLine, startCol})
		default:
			matched := false
			for _, p := range punctuators {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, token{tPunct, p, line, col})
					advance(len(p))
					matched = true
					break
				}
			}
			if !matched {
				return nil, &SyntaxError{line, col, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{tEOF, "", line, col})
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
