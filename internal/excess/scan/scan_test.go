package scan

import (
	"strings"
	"testing"

	"repro/internal/excess/token"
)

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, err := All(src)
	if err != nil {
		t.Fatalf("scan %q: %v", src, err)
	}
	out := make([]token.Kind, 0, len(toks))
	for _, tk := range toks {
		out = append(out, tk.Kind)
	}
	return out
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	for _, src := range []string{"retrieve", "RETRIEVE", "Retrieve"} {
		ks := kinds(t, src)
		if ks[0] != token.RETRIEVE {
			t.Errorf("%q -> %v", src, ks[0])
		}
	}
	// Identifiers keep case and are distinct from keywords.
	toks, _ := All("Employees")
	if toks[0].Kind != token.IDENT || toks[0].Text != "Employees" {
		t.Errorf("ident: %+v", toks[0])
	}
}

func TestNumbers(t *testing.T) {
	toks, err := All("42 3.14 1e6 2.5e-3 7.")
	if err != nil {
		t.Fatal(err)
	}
	wantK := []token.Kind{token.INT, token.FLOAT, token.FLOAT, token.FLOAT, token.INT, token.DOT, token.EOF}
	for i, w := range wantK {
		if toks[i].Kind != w {
			t.Errorf("token %d = %v (%q), want %v", i, toks[i].Kind, toks[i].Text, w)
		}
	}
	// "1.name" must not scan as a float (path after array index).
	toks, _ = All("TopTen[1].name")
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	if toks[2].Kind != token.INT || toks[4].Kind != token.DOT {
		t.Errorf("path with index: %v", texts)
	}
}

func TestStrings(t *testing.T) {
	toks, err := All(`"hello" "a\"b" "tab\t"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "hello" || toks[1].Text != `a"b` || toks[2].Text != "tab\t" {
		t.Errorf("strings: %q %q %q", toks[0].Text, toks[1].Text, toks[2].Text)
	}
	if _, err := All(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := All(`"bad \q escape"`); err == nil {
		t.Error("bad escape accepted")
	}
	if _, err := All("\"newline\n\""); err == nil {
		t.Error("newline in string accepted")
	}
}

func TestOperators(t *testing.T) {
	toks, err := All("a <= b != c |~| d")
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{}
	for _, tk := range toks {
		if tk.Kind == token.OP {
			ops = append(ops, tk.Text)
		}
	}
	if len(ops) != 3 || ops[0] != "<=" || ops[1] != "!=" || ops[2] != "|~|" {
		t.Errorf("ops: %v", ops)
	}
}

func TestComments(t *testing.T) {
	toks, err := All("retrieve -- this is a comment\n (x)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != token.RETRIEVE || toks[1].Kind != token.LPAREN {
		t.Errorf("comment not skipped: %v", toks)
	}
	// "-" followed by "-" inside an operator run stops before the comment.
	toks, err = All("a - -- c\n b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != token.OP || toks[1].Text != "-" || toks[2].Kind != token.IDENT || toks[2].Text != "b" {
		t.Errorf("minus before comment: %v", toks)
	}
}

func TestPositions(t *testing.T) {
	toks, _ := All("a\n  b")
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("a at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("b at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestPunctuation(t *testing.T) {
	ks := kinds(t, "(){}[],:;.")
	want := []token.Kind{
		token.LPAREN, token.RPAREN, token.LBRACE, token.RBRACE,
		token.LBRACKET, token.RBRACKET, token.COMMA, token.COLON,
		token.SEMI, token.DOT, token.EOF,
	}
	for i, w := range want {
		if ks[i] != w {
			t.Errorf("punct %d = %v, want %v", i, ks[i], w)
		}
	}
}

func TestBadCharacter(t *testing.T) {
	if _, err := All("a ` b"); err == nil {
		t.Error("backquote accepted")
	}
}

// TestExponentBackOffColumns: a number that backs off a non-exponent
// "e" ("1e", "1e+") leaves the column where the number ended, so the
// tokens after it and an error in them are reported where they stand.
func TestExponentBackOffColumns(t *testing.T) {
	toks, err := All("x = 1e y")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		text string
		col  int
	}{{"x", 1}, {"=", 3}, {"1", 5}, {"e", 6}, {"y", 8}}
	for i, w := range want {
		if toks[i].Text != w.text || toks[i].Col != w.col {
			t.Errorf("token %d = %q at column %d, want %q at %d", i, toks[i].Text, toks[i].Col, w.text, w.col)
		}
	}
	toks, err = All("1e+ y")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "e" || toks[1].Col != 2 || toks[2].Text != "+" || toks[2].Col != 3 || toks[3].Col != 5 {
		t.Errorf("1e+ y scanned as %v", toks)
	}
	if _, err := All("1e+ `"); err == nil || err.Error() != "1:5: unexpected character '`'" {
		t.Errorf("error after a backed-off exponent: %v", err)
	}
}

// TestLookupKeywords: every keyword is found in any case, without the
// lookup allocating for an ASCII word.
func TestLookupKeywords(t *testing.T) {
	for w, k := range token.Keywords {
		for _, spelling := range []string{w, strings.ToUpper(w), strings.ToUpper(w[:1]) + w[1:]} {
			if got, ok := token.Lookup(spelling); !ok || got != k {
				t.Errorf("Lookup(%q) = %v, %v; want %v", spelling, got, ok, k)
			}
		}
	}
	for _, w := range []string{"Employees", "retrieved", "ret", ""} {
		if k, ok := token.Lookup(w); ok {
			t.Errorf("Lookup(%q) = %v, want no keyword", w, k)
		}
	}
	if n := testing.AllocsPerRun(100, func() { token.Lookup("INTERSECT") }); n != 0 {
		t.Errorf("Lookup allocated %.0f times", n)
	}
}

// TestStringFastPathMatchesDecoding: a plain string is its source text
// and a string with escapes or non-ASCII runes is decoded; both leave
// the following token at the same column.
func TestStringFastPathMatchesDecoding(t *testing.T) {
	for _, c := range []struct {
		src, text string
		next      int
	}{
		{`"abc" x`, "abc", 7},
		{`"a\"b" x`, `a"b`, 8},
		{`"né" x`, "né", 6},
		{`"" x`, "", 4},
	} {
		toks, err := All(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].Kind != token.STRING || toks[0].Text != c.text || toks[1].Col != c.next {
			t.Errorf("%s scanned as %v", c.src, toks)
		}
	}
}

// lookupText is the benchmark's point-read lookup: an ad-hoc indexed
// retrieve with a fresh integer literal.
const lookupText = `retrieve (E.name, E.age) from E in Employees where E.salary = 52817`

// BenchmarkScanStatement scans the point-read lookup into a reused
// token buffer.
func BenchmarkScanStatement(b *testing.B) {
	b.ReportAllocs()
	var buf []token.Token
	for i := 0; i < b.N; i++ {
		toks, err := Append(buf[:0], lookupText)
		if err != nil {
			b.Fatal(err)
		}
		buf = toks
	}
}
