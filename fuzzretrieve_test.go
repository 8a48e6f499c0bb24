package extra_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	extra "repro"
	"repro/internal/excess/token"
	"repro/internal/workload"
)

// FuzzRetrieve checks the engine against the reference evaluator on
// retrieves the fuzz input chooses. The first byte picks a shape — a
// Figure 5/6 query as written, or a randomQuery with Figure 5/6 targets
// and ranges layered on — and the rest drive the generator's choices, so
// every input is a well-typed retrieve over a small seeded company. The
// property: the engine does not panic, and it returns the oracle's rows
// as a multiset or fails where the oracle fails.
//
//	go test -run '^$' -fuzz FuzzRetrieve -fuzztime 30s .
func FuzzRetrieve(f *testing.F) {
	db := fuzzCompany(f)
	figures := append(append([]string{}, fig5Queries...), fig6Queries...)
	for shape := range len(fuzzShapes) + len(figures) {
		f.Add([]byte{byte(shape)})
	}
	for shape := range fuzzShapes {
		f.Add([]byte{byte(shape), 7, 1, 200, 33, 4, 91, 250, 18, 5, 60, 2})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := figureOrRandom(data, figures)
		if err := extra.OracleCheck(db, q); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzCompany is the small seeded company the fuzz targets query, with
// an index on salary and a range declaration.
func fuzzCompany(f *testing.F) *extra.DB {
	db, _, err := workload.New(workload.Params{
		Departments: 5, Employees: 40, MaxKids: 2, Floors: 3, MaxSalary: 1000, Seed: 17,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`range of AE is all Employees`)
	return db
}

// FuzzShapeMemo checks the front-end memo against the reference
// evaluator. The fuzz input drives a shaped randomQuery whose literals
// it writes in assorted ways — negated, parenthesized, as floats,
// beside a string with escapes — in a text whose keywords' case,
// spacing and comments it also varies. Each text runs cold, with the
// memo emptied, and then again with every literal redrawn in the same
// way, which the memo answers by the token shape the first run left or,
// where a literal it kept differs, by the full path. Both runs must
// return the oracle's rows or fail where the oracle fails.
//
//	go test -run '^$' -fuzz FuzzShapeMemo -fuzztime 30s .
func FuzzShapeMemo(f *testing.F) {
	db := fuzzCompany(f)
	for seed := range 40 {
		f.Add([]byte{byte(seed), byte(seed * 7)})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Once the input is spent, the choices come from a source seeded
		// by the whole input, so short inputs differ past their bytes.
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(&byteSource{data: data[1:], rest: rand.NewSource(int64(h.Sum64()))})
		q := randomQuery(rng)
		fuzzShapes[int(data[0])%len(fuzzShapes)](&q)
		m := fuzzText{q: q, styles: make([]int, len(q.args)), seed: rng.Int63()}
		for i := range m.styles {
			m.styles[i] = rng.Intn(len(literalStyles))
		}
		if rng.Intn(2) == 0 {
			m.str = stringLiterals[rng.Intn(len(stringLiterals))]
		}
		first := m.render(rng.Intn(2) == 0)
		extra.ForgetParses(db)
		if err := extra.OracleCheck(db, first); err != nil {
			t.Fatalf("cold: %v", err)
		}
		for i, v := range q.args {
			if n, ok := v.(int); ok {
				m.q.args[i] = n + rng.Intn(41) - 20
			}
		}
		if m.str != "" {
			m.str = stringLiterals[rng.Intn(len(stringLiterals))]
		}
		if err := extra.OracleCheck(db, m.render(rng.Intn(2) == 0)); err != nil {
			t.Fatalf("after %s: %v", first, err)
		}
	})
}

// literalStyles are the ways FuzzShapeMemo writes an int operand.
var literalStyles = []func(n int) string{
	func(n int) string { return strconv.Itoa(n) },
	func(n int) string { return "-" + strconv.Itoa(max(n, -n)) }, // not "--", a comment
	func(n int) string { return "- " + strconv.Itoa(-n) },
	func(n int) string { return "(" + strconv.Itoa(n) + ")" },
	func(n int) string { return "-(" + strconv.Itoa(-n) + ")" },
	func(n int) string { return strconv.Itoa(n) + ".0" },
	func(n int) string { return strconv.Itoa(n) + "e0" },
}

// stringLiterals are the strings FuzzShapeMemo compares names with.
var stringLiterals = []string{`"emp-000003"`, `"emp-000004"`, `"a\"b"`, `"\\"`, `"é"`, `""`, `"x -- y"`}

// fuzzText is a FuzzShapeMemo text: a generated query, the style of
// each of its operands, an optional string comparison, and the seed of
// its spelling.
type fuzzText struct {
	q      genQuery
	styles []int
	str    string
	seed   int64
}

// render writes the text; shout upper-cases its keywords. Its spacing
// and comments are drawn from the seed, so both runs of a text are
// spelled alike unless shout differs.
func (m fuzzText) render(shout bool) string {
	q := m.q
	if m.str != "" {
		q.where += " and E.name != " + m.str
	}
	src := q.fill(func(i int, v any) string {
		n, ok := v.(int)
		if !ok {
			return fmt.Sprint(v)
		}
		return literalStyles[m.styles[i]](n)
	})
	rng := rand.New(rand.NewSource(m.seed))
	var b strings.Builder
	for i, w := range strings.Split(src, " ") {
		if i > 0 {
			b.WriteString([]string{" ", "  ", "\t", " -- note\n"}[rng.Intn(4)])
		}
		if shout {
			if _, ok := token.Lookup(w); ok {
				w = strings.ToUpper(w)
			}
		}
		b.WriteString(w)
	}
	return b.String()
}

// fuzzShapes layer Figure 5/6 shapes over a random query: grouped and
// deduplicated aggregates (Fig. 6), an unnest of the kids set (Fig. 5)
// and a universally quantified residue (Fig. 6).
var fuzzShapes = []func(q *genQuery){
	func(*genQuery) {},
	func(q *genQuery) {
		q.targets = "f = E.dept.floor, a = avg(E.salary by E.dept.floor), n = count(E.name)"
	},
	func(q *genQuery) { q.targets = "n = count(E.dept.dname over E.dept.dname), s = sum(E.salary)" },
	func(q *genQuery) {
		q.from += ", K in E.kids"
		q.targets = "E.name, K.name, K.age, k = count(E.kids.name)"
	},
	func(q *genQuery) {
		q.where += " and (AE.dept isnot E.dept or AE.age > ?)"
		q.args = append(q.args, 40)
	},
}

// figureOrRandom maps fuzz input to a retrieve: a figure query as
// written, or a shaped randomQuery whose choices the remaining bytes
// make.
func figureOrRandom(data []byte, figures []string) string {
	pick := int(data[0]) % (len(fuzzShapes) + len(figures))
	if pick >= len(fuzzShapes) {
		return figures[pick-len(fuzzShapes)]
	}
	q := randomQuery(rand.New(&byteSource{data: data[1:]}))
	fuzzShapes[pick](&q)
	return q.literal()
}

// byteSource is a rand.Source that reads its numbers from the fuzz
// input, and once that is spent from a fixed-seed source (a constant
// stream would stall rand's rejection sampling).
type byteSource struct {
	data []byte
	rest rand.Source
}

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		if s.rest == nil {
			s.rest = rand.NewSource(1)
		}
		return s.rest.Int63()
	}
	var b [8]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (s *byteSource) Seed(int64) {}
