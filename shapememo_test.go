package extra

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/types"
	"repro/internal/value"
)

// ForgetParses empties the front-end memo, so the next statement of
// every text is read the way a cold engine reads it.
func ForgetParses(db *DB) {
	pc := db.plans
	pc.mu.Lock()
	defer pc.mu.Unlock()
	clear(pc.memo)
	pc.memoFIFO = nil
}

// memoTraffic is the change of the front end's counters over fn.
type memoTraffic struct{ text, shape, miss, parse uint64 }

func memoDelta(db *DB, fn func()) memoTraffic {
	before := db.MetricsSnapshot().Counters
	fn()
	after := db.MetricsSnapshot().Counters
	d := func(name string) uint64 { return after[name] - before[name] }
	return memoTraffic{d("parse.memo.text_hits"), d("parse.memo.shape_hits"), d("parse.memo.misses"), d("parse.full")}
}

// TestParseMemoCounters: the memo's traffic is observable. A hot text
// is an exact hit, a fresh literal a shape hit, neither parses, and a
// write statement misses and is parsed; the counters are in the
// registry \stats and /metrics render.
func TestParseMemoCounters(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	q := `retrieve (E.name) from E in Employees where E.salary = %d`
	if got := memoDelta(db, func() { db.MustQuery(fmt.Sprintf(q, 90)) }); got != (memoTraffic{miss: 1, parse: 1}) {
		t.Errorf("first text: %+v, want one miss and one parse", got)
	}
	if got := memoDelta(db, func() { db.MustQuery(fmt.Sprintf(q, 90)) }); got != (memoTraffic{text: 1}) {
		t.Errorf("hot text: %+v, want one exact hit", got)
	}
	if got := memoDelta(db, func() { db.MustQuery(fmt.Sprintf(q, 50)) }); got != (memoTraffic{shape: 1}) {
		t.Errorf("fresh literal: %+v, want one shape hit", got)
	}
	if got := memoDelta(db, func() { db.MustExec(`replace E (age = E.age) from E in Employees where E.salary = 50`) }); got != (memoTraffic{miss: 1, parse: 1}) {
		t.Errorf("write: %+v, want one miss and one parse", got)
	}
	var b strings.Builder
	if err := db.MetricsSnapshot().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parse.memo.text_hits", "parse.memo.shape_hits", "parse.memo.misses", "parse.full"} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("%s is not in the metrics text", name)
		}
	}
}

// memoCase is one row of the differential table: warm runs on the
// memo engine first, setup runs on both engines, and probe must then be
// answered the way via says ("text", "shape" or "miss") and exactly as
// an engine that never saw warm answers it.
type memoCase struct {
	name  string
	warm  []string
	setup func(t *testing.T, db *DB)
	probe string
	via   string
}

const (
	bySalary = `retrieve (E.name) from E in Employees where E.salary = `
	byName   = `retrieve (E.name, E.age) from E in Employees where E.name = `
)

var memoCases = []memoCase{
	{"hot text", []string{bySalary + "90"}, nil, bySalary + "90", "text"},
	{"fresh literal", []string{bySalary + "90"}, nil, bySalary + "50", "shape"},
	{"two slots", []string{`retrieve (E.name) from E in Employees where E.salary >= 40 and E.age < 60`}, nil,
		`retrieve (E.name) from E in Employees where E.salary >= 100 and E.age < 56`, "shape"},
	{"mirrored comparison", []string{`retrieve (E.name) from E in Employees where 40 < E.salary`}, nil,
		`retrieve (E.name) from E in Employees where 95 < E.salary`, "shape"},
	{"negated literal kept", []string{`retrieve (E.name) from E in Employees where E.salary > -5 and E.age = 41`}, nil,
		`retrieve (E.name) from E in Employees where E.salary > -5 and E.age = 33`, "shape"},
	{"negated literal differs", []string{bySalary + "-5"}, nil, bySalary + "-7", "miss"},
	{"negated zero", []string{`retrieve (E.name) from E in Employees where E.salary > -(0)`}, nil,
		`retrieve (E.name) from E in Employees where E.salary > -(100)`, "miss"},
	{"parenthesized literal", []string{bySalary + "(90)"}, nil, bySalary + "(45)", "shape"},
	{"target literal kept", []string{`retrieve (E.name, x = 1) from E in Employees where E.salary = 90`}, nil,
		`retrieve (E.name, x = 1) from E in Employees where E.salary = 50`, "shape"},
	{"target literal differs", []string{`retrieve (E.name, x = 1) from E in Employees where E.salary = 90`}, nil,
		`retrieve (E.name, x = 2) from E in Employees where E.salary = 90`, "miss"},
	{"$1 versus $2", []string{bySalary + "$1"}, nil, bySalary + "$2", "miss"},
	{"keyword case", []string{bySalary + "90"}, nil, `RETRIEVE (E.name) FROM E IN Employees WHERE E.salary = 120`, "shape"},
	{"identifier case", []string{bySalary + "90"}, nil, `retrieve (e.name) from e in Employees where e.salary = 120`, "miss"},
	{"int versus float", []string{bySalary + "5"}, nil, bySalary + "5.0", "miss"},
	{"float exponent", []string{`retrieve (E.name) from E in Employees where E.salary < 1e2`}, nil,
		`retrieve (E.name) from E in Employees where E.salary < 5.5e1`, "shape"},
	{"escaped string and comment", []string{byName + `"Ann"`}, nil, byName + `"B\"en" -- who?`, "shape"},
	{"non-ASCII string", []string{byName + `"Ann"`}, nil, byName + `"Bén"`, "shape"},
	{"overflowing int", []string{bySalary + "90"}, nil, bySalary + "99999999999999999999", "miss"},
	{"check failure on a memoized shape", []string{`retrieve (E.name) from E in Employees where E.name = 5`}, nil,
		`retrieve (E.name)  from E in Employees where E.name = 7`, "shape"},
	{"check failure, nothing lifted", []string{`retrieve (E.nme) from E in Employees`}, nil,
		`retrieve  (E.nme) from E in Employees`, "shape"},
	{"ADT operator registered between runs", []string{bySalary + "90"}, registerOperator, bySalary + "90", "miss"},
}

// registerOperator registers a prefix operator, which moves the ADT
// registry to a new version.
func registerOperator(t *testing.T, db *DB) {
	t.Helper()
	c, err := db.Registry().Define("Tag")
	if err != nil {
		t.Fatal(err)
	}
	f := &adt.Func{Name: "tag", Params: []types.Type{c.Type}, Result: c.Type,
		Impl: func(a []value.Value) (value.Value, error) { return a[0], nil }}
	if err := db.Registry().RegisterFunc("Tag", f); err != nil {
		t.Fatal(err)
	}
	if err := db.Registry().RegisterOperator("Tag", adt.Operator{Symbol: "~~", Prefix: true, Precedence: 7, Fn: f}); err != nil {
		t.Fatal(err)
	}
}

// TestShapeMemoMatchesColdPath is the memo's differential table: for
// every row, the memo engine's answer to the probe — its plan-cache key
// text, frame values and types, rows or error text, and EXPLAIN and
// EXPLAIN ANALYZE output — equals that of an engine reading the probe
// cold.
func TestShapeMemoMatchesColdPath(t *testing.T) {
	for _, c := range memoCases {
		t.Run(c.name, func(t *testing.T) {
			memo, cold := mustOpen(t), mustOpen(t)
			loadCompany(t, memo)
			loadCompany(t, cold)
			for _, w := range c.warm {
				memo.Query(w)
			}
			if c.setup != nil {
				c.setup(t, memo)
				c.setup(t, cold)
			}
			var got, want string
			traffic := memoDelta(memo, func() { got = runOutcome(memo, c.probe) })
			want = runOutcome(cold, c.probe)
			if via := traffic.via(); via != c.via {
				t.Errorf("probe answered by %s (%+v), want %s", via, traffic, c.via)
			}
			if got != want {
				t.Errorf("memo path:\n%s\ncold path:\n%s", got, want)
			}
			// The probe is now a hot text on both engines: its lifted
			// form is what the first run used.
			if got, want := frontOutcome(memo, c.probe), frontOutcome(cold, c.probe); got != want {
				t.Errorf("memo front end:\n%s\ncold front end:\n%s", got, want)
			}
			if got, want := explainOutcome(memo, c.probe), explainOutcome(cold, c.probe); got != want {
				t.Errorf("memo explain:\n%s\ncold explain:\n%s", got, want)
			}
			if want, err := OracleRows(cold, c.probe); err == nil {
				if res, err := memo.Query(c.probe); err != nil {
					t.Errorf("engine failed where the oracle returned rows: %v", err)
				} else if err := DiffRows(c.probe, CanonRows(res), want); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// via names the memo answer a probe's traffic shows.
func (m memoTraffic) via() string {
	switch {
	case m == memoTraffic{text: 1}:
		return "text"
	case m == memoTraffic{shape: 1} || m == memoTraffic{shape: 1, parse: 1}: // a check failure reparses
		return "shape"
	case m.miss == 1 && m.text == 0 && m.shape == 0:
		return "miss"
	}
	return fmt.Sprintf("%+v", m)
}

// runOutcome renders a query's rows or its error.
func runOutcome(db *DB, src string) string {
	res, err := db.Query(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return strings.Join(CanonRows(res), "\n")
}

// frontOutcome renders what the front end makes of a text: the lifted
// retrieve's plan-key text, slot types and frame, or the error.
func frontOutcome(db *DB, src string) string {
	c := stmtCall{src: src}
	defer c.release()
	if err := db.def.parse(&c); err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, ad := range c.lifted {
		fmt.Fprintf(&b, "key %q\n", ad.keyText)
		for i, v := range ad.frame {
			fmt.Fprintf(&b, "$%d %s %s = %s\n", i+1, ad.slots[i], v.Kind(), v)
		}
	}
	return b.String()
}

// explainOutcome renders EXPLAIN and, normalized, EXPLAIN ANALYZE of a
// query, or their errors.
func explainOutcome(db *DB, src string) string {
	plan, err := db.Explain(src)
	if err != nil {
		plan = "error: " + err.Error()
	}
	an, err := db.ExplainAnalyze(src)
	if err != nil {
		an = "error: " + err.Error()
	}
	return plan + "\n" + normalizeAnalyze(an)
}
