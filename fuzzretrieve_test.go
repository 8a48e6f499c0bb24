package extra_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	extra "repro"
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
	db, _, err := workload.New(workload.Params{
		Departments: 5, Employees: 40, MaxKids: 2, Floors: 3, MaxSalary: 1000, Seed: 17,
	}, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	db.MustExec(`define index emp_sal on Employees (salary)`)
	db.MustExec(`range of AE is all Employees`)
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
