package sql

import "strings"

// Normalize canonicalizes a SQL statement's text for use as a plan-cache
// key: outside single-quoted string literals and double-quoted identifiers
// it lower-cases ASCII letters, collapses every run of whitespace to a single
// space, and drops "--" line comments exactly like the lexer does (a comment
// and the newline ending it normalize to one space, so commented and
// uncommented spellings of one statement share a key while a comment can
// never swallow differing text into an identical key); literals and quoted
// identifiers are preserved byte for byte (including doubled-quote escapes),
// so two spellings that differ inside a quoted alias name different result
// columns and keep different keys; leading/trailing whitespace and a trailing
// semicolon are dropped. Two spellings of the same statement that differ only
// in keyword/identifier case, whitespace or comments therefore share a cache
// entry, while statements the lexer would tokenize differently never
// collide. It is purely textual — no parsing — so it costs one pass over
// the input.
func Normalize(input string) string {
	var b strings.Builder
	b.Grow(len(input))
	var quote byte // the quote of the literal or identifier being copied, or 0
	pendingSpace := false
	for i := 0; i < len(input); i++ {
		c := input[i]
		if quote != 0 {
			b.WriteByte(c)
			if c == quote {
				// A doubled quote stays inside the literal or identifier.
				if i+1 < len(input) && input[i+1] == quote {
					b.WriteByte(c)
					i++
				} else {
					quote = 0
				}
			}
			continue
		}
		switch {
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			// Line comment: skip to end of line; the comment (and its
			// terminating newline, if any) reads as whitespace.
			for i < len(input) && input[i] != '\n' {
				i++
			}
			i-- // the loop increment consumes the newline (or ends the input)
			pendingSpace = true
		case c == '\'' || c == '"':
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			quote = c
			b.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	out := b.String()
	for strings.HasSuffix(out, ";") {
		out = strings.TrimRight(strings.TrimSuffix(out, ";"), " \t\n\r")
	}
	return out
}
