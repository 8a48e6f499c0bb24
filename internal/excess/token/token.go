// Package token defines the lexical tokens of the EXCESS language.
package token

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Kind classifies a token.
type Kind int

// Token kinds. Keywords are matched case-insensitively by the scanner;
// identifiers are case-sensitive.
const (
	EOF Kind = iota
	IDENT
	INT
	FLOAT
	STRING
	OP // operator symbol: =, !=, <=, +, or any registered punctuation run

	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	COLON    // :
	SEMI     // ;
	DOT      // .

	kwStart
	DEFINE
	TYPE
	ENUM
	INHERITS
	WITH
	RENAMED
	AND
	OR
	NOT
	CREATE
	DROP
	FUNCTION
	PROCEDURE
	LATE
	RETURNS
	AS
	INDEX
	ON
	RANGE
	OF
	IS
	ISNOT
	ALL
	RETRIEVE
	INTO
	FROM
	IN
	WHERE
	APPEND
	TO
	DELETE
	REPLACE
	SET
	EXECUTE
	GRANT
	REVOKE
	UNION
	INTERSECT
	DIFF
	CONTAINS
	BY
	OVER
	OWN
	REF
	TRUE
	FALSE
	NULL
	kwEnd
)

var kindNames = map[Kind]string{
	EOF: "end of input", IDENT: "identifier", INT: "integer", FLOAT: "float",
	STRING: "string", OP: "operator", LPAREN: "(", RPAREN: ")", LBRACE: "{",
	RBRACE: "}", LBRACKET: "[", RBRACKET: "]", COMMA: ",", COLON: ":",
	SEMI: ";", DOT: ".",
	DEFINE: "define", TYPE: "type", ENUM: "enum", INHERITS: "inherits",
	WITH: "with", RENAMED: "renamed", AND: "and", OR: "or", NOT: "not",
	CREATE: "create", DROP: "drop", FUNCTION: "function",
	PROCEDURE: "procedure", LATE: "late", RETURNS: "returns", AS: "as",
	INDEX: "index", ON: "on", RANGE: "range", OF: "of", IS: "is",
	ISNOT: "isnot", ALL: "all", RETRIEVE: "retrieve", INTO: "into",
	FROM: "from", IN: "in", WHERE: "where", APPEND: "append", TO: "to",
	DELETE: "delete", REPLACE: "replace", SET: "set", EXECUTE: "execute",
	GRANT: "grant", REVOKE: "revoke", UNION: "union",
	INTERSECT: "intersect", DIFF: "diff", CONTAINS: "contains", BY: "by",
	OVER: "over", OWN: "own", REF: "ref", TRUE: "true", FALSE: "false",
	NULL: "null",
}

// String returns a human-readable name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Keywords maps lower-case keyword spellings to their kinds.
var Keywords = func() map[string]Kind {
	m := make(map[string]Kind)
	for k := kwStart + 1; k < kwEnd; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// keywordLens has bit n of entry c set when a keyword of length n
// begins with the letter 'a'+c: most identifiers are told from keywords
// without a map probe.
var keywordLens = func() (m [26]uint32) {
	for w := range Keywords {
		m[w[0]-'a'] |= 1 << len(w)
	}
	return m
}()

// Lookup returns the keyword kind an identifier-shaped word spells,
// matched case-insensitively. An ASCII word is lowered into a stack
// buffer, so the lookup does not allocate.
func Lookup(word string) (Kind, bool) {
	var buf [16]byte // longer than any keyword
	if len(word) == 0 || len(word) > len(buf) {
		return 0, false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= utf8.RuneSelf {
			k, ok := Keywords[strings.ToLower(word)]
			return k, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	if c := buf[0]; c < 'a' || c > 'z' || keywordLens[c-'a']&(1<<len(word)) == 0 {
		return 0, false
	}
	k, ok := Keywords[string(buf[:len(word)])]
	return k, ok
}

// Token is one lexical token with its source position.
type Token struct {
	Kind Kind
	Text string // raw text for IDENT/OP; decoded value for STRING
	Line int
	Col  int
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, FLOAT, OP:
		return fmt.Sprintf("%q", t.Text)
	case STRING:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}

// IsKeyword reports whether the kind is a keyword.
func (k Kind) IsKeyword() bool { return k > kwStart && k < kwEnd }
