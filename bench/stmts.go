package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	extra "repro"
	"repro/internal/codec"
	"repro/internal/value"
)

// opKind names one statement shape. The order is the report order.
type opKind uint8

const (
	opPrepSalary   opKind = iota // prepared index lookup on salary, literal in the prepared text
	opPrepName                   // prepared index lookup on name, literal in the prepared text
	opAdhocHot                   // ad-hoc text from the 64-statement hot set
	opAdhocFresh                 // ad-hoc text with a literal not seen before
	opScanProject                // filtered full scan + projection
	opScanCount                  // count over a filter
	opRefPath                    // implicit join through E.dept.floor
	opUnnest                     // nested-set unnest K in E.kids
	opHashJoin                   // Employees × Departments value join with a by aggregate
	opAppend                     // one-object append with a dept ref
	opAppendKid                  // append to an own-ref kids set
	opReplaceKey                 // replace one object by indexed key
	opDeleteKey                  // delete one object (and its kids) by indexed key
	opReplaceRange               // replace over a ≈50-row salary range
	opReadBack                   // read-your-writes check of a hot row (never timed)
	numOpKinds
)

var opNames = [numOpKinds]string{
	"prep_salary", "prep_name", "adhoc_hot", "adhoc_fresh",
	"scan_project", "scan_count", "ref_path", "unnest", "hash_join",
	"append", "append_kid", "replace_key", "delete_key", "replace_range", "read_back",
}

func (k opKind) isWrite() bool { return k >= opAppend && k <= opReplaceRange }

// The engine's planner turns only literals into index keys: a "$1"
// compared with an indexed attribute is evaluated by a full scan. An
// application that wants its index used therefore puts keys into the
// statement text, and this benchmark does the same. Statements whose
// parameters are not index keys (scan bounds, appended values) are
// prepared with $n slots; the two prepared lookup kinds are prepared
// once per literal, a fixed set per session.
func (k opKind) params() bool { return k >= opScanProject && k <= opAppend }
func (k opKind) preparedSet() bool {
	return k == opPrepSalary || k == opPrepName
}

// Source text per kind: $n slots for the kinds prepared with parameters,
// format strings for the rest.
var opSrc = [numOpKinds]string{
	opPrepSalary:   `retrieve (E.name, E.age) from E in Employees where E.salary = %d`,
	opPrepName:     `retrieve (E.name, E.salary, E.age) from E in Employees where E.name = %q`,
	opAdhocHot:     `retrieve (E.name, E.salary) from E in Employees where E.name = %q`,
	opAdhocFresh:   `retrieve (E.name, E.age) from E in Employees where E.salary = %d`,
	opScanProject:  `retrieve (E.name, E.salary) from E in Employees where E.age >= $1 and E.age < $2`,
	opScanCount:    `retrieve (n = count(E.name)) from E in Employees where E.age >= $1 and E.age < $2`,
	opRefPath:      `retrieve (E.name) from E in Employees where E.dept.floor = $1`,
	opUnnest:       `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < $1`,
	opHashJoin:     `retrieve (d = D.dname, s = sum(E.salary by D.dname)) from E in Employees, D in Departments where E.dept.dname = D.dname and D.floor = $1`,
	opAppend:       `append to Employees (name = $1, age = $2, salary = $3, dept = D) from D in Departments where D.dname = $4`,
	opAppendKid:    `append to E.kids (name = %[2]q, age = %[3]d) from E in Employees where E.name = %[1]q`,
	opReplaceKey:   `replace E (salary = %[2]d) from E in Employees where E.name = %[1]q`,
	opDeleteKey:    `delete E from E in Employees where E.name = %q`,
	opReplaceRange: `replace E (age = E.age + 1) from E in Employees where E.salary >= %d and E.salary < %d`,
	opReadBack:     `retrieve (E.name, E.salary, E.age) from E in Employees where E.name = %q`,
}

// newStmt fills in the source text of the kinds that carry their
// arguments as literals.
func newStmt(kind opKind, wantRows int, args ...any) stmt {
	st := stmt{kind: kind, args: args, wantRows: wantRows}
	if !kind.params() {
		st.text = fmt.Sprintf(opSrc[kind], args...)
	}
	return st
}

// stmt is one generated statement with what the oracle expects of it.
type stmt struct {
	kind opKind
	text string // source with the arguments as literals; empty for kinds prepared with $n slots
	args []any  // the arguments: bound to $n slots, or the literals in text (the oracle reads them)
	slot int    // preparedSet kinds: which of the session's prepared statements
	// wantRows is the exact result row count of a read; -1 for writes,
	// whose effect is checked by read-backs and the final band sweep.
	wantRows int
	// userBytes is the codec-encoded size of the tuples a write stores.
	userBytes int
}

// mix is a workload's statement mix in parts: point reads, scans and
// joins, writes; and within the point reads, prepared lookups, ad-hoc
// lookups from the hot set, and ad-hoc lookups with a fresh literal. The
// point-read parts are chosen per workload so that the median statement
// falls well inside one kind (the hot set's) and not on the border
// between two, where it would flip from run to run.
type mix struct {
	point, scan, write int
	prep, hot, fresh   int
}

// spread lays counts[k] copies of each k out over one cycle as evenly as
// it can: slot by slot it places the k that is furthest behind its
// share. The order of statement kinds in every workload is fixed this
// way — only arguments are drawn at random — so each block of a run, and
// each run whatever its seed, carries exactly the same mix, and a
// latency percentile does not flip between kinds from run to run.
func spread(counts ...int) []int {
	n := 0
	for _, c := range counts {
		n += c
	}
	placed := make([]int, len(counts))
	cycle := make([]int, 0, n)
	for i := 0; i < n; i++ {
		best, bestLag := -1, 0.0
		for k, c := range counts {
			lag := float64(c)*float64(i+1)/float64(n) - float64(placed[k])
			if placed[k] < c && (best < 0 || lag > bestLag) {
				best, bestLag = k, lag
			}
		}
		placed[best]++
		cycle = append(cycle, best)
	}
	return cycle
}

// The cycles within each class of statement.
var (
	pointKinds = []opKind{opPrepSalary, opPrepName, opAdhocHot, opAdhocFresh}
	// 40 % append + 10 % append-kid (an "append" of the issue's mix is
	// one employee plus 0–2 kids; EXCESS fills an own-ref set one
	// statement per element), 30 % replace by key, 10 % delete by key,
	// 10 % range replace.
	writeKinds = []opKind{opAppend, opAppendKid, opReplaceKey, opDeleteKey, opReplaceRange}
	writeCycle = spread(4, 1, 3, 1, 1)
)

// hotState is one stream's exact model of the rows it alone mutates.
type hotState struct {
	stream int
	rows   map[string]*emp
	names  []string // live names, for uniform picks
	pos    map[string]int
	next   int // id of the next appended row
}

func newHotState(c *company, stream int) *hotState {
	h := &hotState{stream: stream, rows: map[string]*emp{}, pos: map[string]int{}, next: c.sc.Hot}
	for i := range c.hot[stream] {
		e := c.hot[stream][i]
		e.kids = append([]kid(nil), e.kids...)
		h.add(&e)
	}
	return h
}

func (h *hotState) add(e *emp) {
	h.rows[e.name] = e
	h.pos[e.name] = len(h.names)
	h.names = append(h.names, e.name)
}

func (h *hotState) remove(name string) {
	i := h.pos[name]
	last := h.names[len(h.names)-1]
	h.names[i] = last
	h.pos[last] = i
	h.names = h.names[:len(h.names)-1]
	delete(h.pos, name)
	delete(h.rows, name)
}

// generator produces one stream's statements. It draws only from its own
// rng, so a (seed, stream) pair always yields the same statements, and it
// applies each write to its hot model as it is generated: statements of a
// stream run strictly in order, one session each.
type generator struct {
	c      *company
	rng    *rand.Rand
	hot    *hotState
	hotSet []string // names behind the 64 ad-hoc texts both streams share
	// prepSet holds the literals of the session's prepared lookups:
	// the first half salaries, the second half names.
	prepSet []stmt
	fresh   int // fresh-literal counter
	// Positions in the class cycle and in each class's own cycle, and
	// per scan shape how many were generated (their arguments cycle too).
	classCycle, pointCycle        []int
	nClass, nPoint, nScan, nWrite int
	nShape                        [numOpKinds]int
	// touched collects hot names written since the last takeTouched call.
	touched map[string]bool
}

const (
	hotSetSize  = 64 // distinct ad-hoc texts that recur (below the engine's 256-plan cache)
	prepSetSize = 64 // prepared lookups per session
)

func newGenerator(c *company, seed int64, stream int, m mix) *generator {
	g := &generator{
		c:          c,
		rng:        rand.New(rand.NewSource(seed*7919 + int64(stream) + 1)),
		hot:        newHotState(c, stream),
		classCycle: spread(m.point, m.scan, m.write),
		pointCycle: spread(m.prep/2, m.prep-m.prep/2, m.hot, m.fresh),
		touched:    map[string]bool{},
	}
	hs := rand.New(rand.NewSource(seed*104729 + 17))
	for i := 0; i < hotSetSize; i++ {
		g.hotSet = append(g.hotSet, c.base[hs.Intn(len(c.base))].name)
	}
	for i := 0; i < prepSetSize; i++ {
		e := &c.base[hs.Intn(len(c.base))]
		var st stmt
		if i < prepSetSize/2 {
			st = newStmt(opPrepSalary, len(c.bySalary[e.salary]), e.salary)
		} else {
			st = newStmt(opPrepName, 1, e.name)
		}
		st.slot = i
		g.prepSet = append(g.prepSet, st)
	}
	return g
}

// next generates the stream's next statement.
func (g *generator) next() stmt {
	class := g.classCycle[g.nClass%len(g.classCycle)]
	g.nClass++
	switch class {
	case 0:
		return g.pointRead()
	case 1:
		return g.scan()
	default:
		return g.write()
	}
}

func (g *generator) block(n int) []stmt {
	out := make([]stmt, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// pointRead generates the next point read of the workload's point cycle.
func (g *generator) pointRead() stmt {
	c := g.c
	kind := pointKinds[g.pointCycle[g.nPoint%len(g.pointCycle)]]
	g.nPoint++
	switch kind {
	case opPrepSalary:
		return g.prepSet[g.rng.Intn(prepSetSize/2)]
	case opPrepName:
		return g.prepSet[prepSetSize/2+g.rng.Intn(prepSetSize/2)]
	case opAdhocHot:
		return newStmt(opAdhocHot, 1, g.hotSet[g.rng.Intn(hotSetSize)])
	default:
		// Streams walk disjoint residue classes of a full-period
		// sequence over [0, maxBaseSalary), so a literal recurs only
		// after maxBaseSalary/streams other texts went by.
		v := (g.fresh*streams + g.hot.stream) * 7919 % maxBaseSalary
		g.fresh++
		return newStmt(opAdhocFresh, len(c.bySalary[v]), v)
	}
}

// scan generates the next of the five scan-and-join shapes in turn. The
// arguments cycle as well (age windows, floors, kid ages), so every run
// does the same amount of scanning whatever its seed.
func (g *generator) scan() stmt {
	c := g.c
	shape := opScanProject + opKind(g.nScan%5)
	g.nScan++
	i := g.nShape[shape]
	g.nShape[shape]++
	switch shape {
	case opScanProject, opScanCount:
		lo := baseAgeLo + i*7%(baseAgeHi-baseAgeLo-2)
		hi := lo + 2
		n := len(c.byAge[lo]) + len(c.byAge[lo+1])
		if shape == opScanCount {
			n = 1
		}
		return newStmt(shape, n, lo, hi)
	case opRefPath:
		f := 1 + i%c.sc.Floors
		return newStmt(shape, len(c.byFloor[f]), f)
	case opUnnest:
		a := 2 + i*5%(baseKidAgeHi-2)
		n := 0
		for age := 1; age < a; age++ {
			n += c.kidsByAge[age]
		}
		return newStmt(shape, n, a)
	default:
		f := 1 + i%c.sc.Floors
		n := 0
		for _, d := range c.deptsOn[f] {
			if c.deptHasEmp[d] {
				n++
			}
		}
		return newStmt(opHashJoin, n, f)
	}
}

// write generates the next write of writeCycle, on rows of the
// stream's own hot population.
func (g *generator) write() stmt {
	h := g.hot
	span := g.span()
	kind := writeKinds[writeCycle[g.nWrite%len(writeCycle)]]
	g.nWrite++
	if len(h.names) < 8 {
		kind = opAppend // a drained population only grows
	}
	switch kind {
	case opAppend:
		return g.appendOne()
	case opAppendKid:
		e := h.rows[h.names[g.rng.Intn(len(h.names))]]
		k := kid{name: fmt.Sprintf("%s-k%d", e.name, len(e.kids)), age: baseKidAgeHi + g.rng.Intn(20)}
		e.kids = append(e.kids, k)
		g.touched[e.name] = true
		st := newStmt(opAppendKid, -1, e.name, k.name, k.age)
		st.userBytes = g.c.kidBytes(k) + g.c.empBytes(e)
		return st
	case opReplaceKey:
		e := h.rows[h.names[g.rng.Intn(len(h.names))]]
		e.salary = bandLo(h.stream) + g.rng.Intn(span)
		g.touched[e.name] = true
		st := newStmt(opReplaceKey, -1, e.name, e.salary)
		st.userBytes = g.c.empBytes(e)
		return st
	case opDeleteKey:
		name := h.names[g.rng.Intn(len(h.names))]
		h.remove(name)
		g.touched[name] = true
		return newStmt(opDeleteKey, -1, name)
	default:
		// Initial hot salaries sit 20 apart, so a 1000-wide range holds
		// about 50 rows.
		width := min(1000, span/2)
		lo := bandLo(h.stream) + g.rng.Intn(span-width+1)
		hi := lo + width
		ub := 0
		for _, e := range h.rows {
			if e.salary >= lo && e.salary < hi {
				e.age++
				ub += g.c.empBytes(e)
				g.touched[e.name] = true
			}
		}
		st := newStmt(opReplaceRange, -1, lo, hi)
		st.userBytes = ub
		return st
	}
}

// span is the width of the salary range a stream's hot rows live in:
// the initial ones sit 20 apart.
func (g *generator) span() int { return 20 * g.c.sc.Hot }

// appendOne generates an append regardless of the mix (durable_write's
// WAL tail).
func (g *generator) appendOne() stmt {
	h := g.hot
	e := &emp{
		name:   hotName(h.stream, h.next),
		age:    hotAgeLo + g.rng.Intn(10),
		salary: bandLo(h.stream) + g.rng.Intn(g.span()),
		dept:   g.c.sc.Depts - g.c.sc.Annex + g.rng.Intn(g.c.sc.Annex),
	}
	h.next++
	h.add(e)
	g.touched[e.name] = true
	st := newStmt(opAppend, -1, e.name, e.age, e.salary, g.c.depts[e.dept].name)
	st.userBytes = g.c.empBytes(e)
	return st
}

// takeTouched returns (sorted, so runs repeat) the hot names written
// since the last call and forgets them.
func (g *generator) takeTouched() []string {
	out := make([]string, 0, len(g.touched))
	for n := range g.touched {
		out = append(out, n)
	}
	sort.Strings(out)
	g.touched = map[string]bool{}
	return out
}

// readBack builds the read-your-writes check for one hot name against
// the stream's model: a live row comes back with its current salary and
// age, a deleted one not at all.
func (g *generator) readBack(name string) (stmt, [][]string) {
	if e, ok := g.hot.rows[name]; ok {
		return newStmt(opReadBack, 1, name), [][]string{{strconv.Quote(e.name), strconv.Itoa(e.salary), strconv.Itoa(e.age)}}
	}
	return newStmt(opReadBack, 0, name), nil
}

// bandSweep is the statement that returns every row of a stream's
// salary band, and the rows the model says it holds.
func (g *generator) bandSweep() (string, [][]string) {
	lo := bandLo(g.hot.stream)
	src := fmt.Sprintf(`retrieve (E.name, E.salary, E.age, n = count(E.kids)) from E in Employees where E.salary >= %d and E.salary < %d`, lo, lo+bandWidth)
	rows := make([][]string, 0, len(g.hot.rows))
	for _, e := range g.hot.rows {
		rows = append(rows, []string{strconv.Quote(e.name), strconv.Itoa(e.salary), strconv.Itoa(e.age), strconv.Itoa(len(e.kids))})
	}
	return src, rows
}

// empBytes / kidBytes are the codec-encoded sizes of a model row: the
// "user bytes" denominator of wal_b_per_user_b.
func (c *company) empBytes(e *emp) int {
	tv := value.NewTuple(c.empT)
	tv.Set("name", value.NewStr(e.name))
	tv.Set("age", int4(e.age))
	refs := make([]value.Value, len(e.kids))
	for i := range refs {
		refs[i] = value.Ref{OID: 1, Type: c.personT.Name}
	}
	tv.Set("kids", &value.Set{Elems: refs})
	tv.Set("salary", int4(e.salary))
	tv.Set("dept", value.Ref{OID: 1, Type: c.deptT.Name})
	enc, err := codec.Encode(nil, tv)
	if err != nil {
		panic(err) // the model only holds encodable scalars
	}
	return len(enc)
}

func (c *company) kidBytes(k kid) int {
	kv := value.NewTuple(c.personT)
	kv.Set("name", value.NewStr(k.name))
	kv.Set("age", int4(k.age))
	enc, err := codec.Encode(nil, kv)
	if err != nil {
		panic(err)
	}
	return len(enc)
}

// wantFull renders the exact rows the model expects of a read statement,
// in the engine's own value syntax.
func (c *company) wantFull(st stmt) [][]string {
	q := strconv.Quote
	itoa := strconv.Itoa
	var rows [][]string
	switch st.kind {
	case opPrepSalary, opAdhocFresh:
		for _, i := range c.bySalary[st.args[0].(int)] {
			e := &c.base[i]
			rows = append(rows, []string{q(e.name), itoa(e.age)})
		}
	case opPrepName:
		e := c.baseByName(st.args[0].(string))
		rows = append(rows, []string{q(e.name), itoa(e.salary), itoa(e.age)})
	case opAdhocHot:
		e := c.baseByName(st.args[0].(string))
		rows = append(rows, []string{q(e.name), itoa(e.salary)})
	case opScanProject:
		for age := st.args[0].(int); age < st.args[1].(int); age++ {
			for _, i := range c.byAge[age] {
				e := &c.base[i]
				rows = append(rows, []string{q(e.name), itoa(e.salary)})
			}
		}
	case opScanCount:
		n := 0
		for age := st.args[0].(int); age < st.args[1].(int); age++ {
			n += len(c.byAge[age])
		}
		rows = append(rows, []string{itoa(n)})
	case opRefPath:
		for _, i := range c.byFloor[st.args[0].(int)] {
			rows = append(rows, []string{q(c.base[i].name)})
		}
	case opUnnest:
		a := st.args[0].(int)
		for i := range c.base {
			for _, k := range c.base[i].kids {
				if k.age < a {
					rows = append(rows, []string{q(c.base[i].name), q(k.name)})
				}
			}
		}
	case opHashJoin:
		for _, d := range c.deptsOn[st.args[0].(int)] {
			if c.deptHasEmp[d] {
				rows = append(rows, []string{q(c.depts[d].name), strconv.FormatInt(c.deptSalary[d], 10)})
			}
		}
	}
	return rows
}

// baseByName resolves "emp-NNNNNN" to its base row.
func (c *company) baseByName(name string) *emp {
	var i int
	fmt.Sscanf(name, "emp-%d", &i)
	return &c.base[i]
}

// sameRows compares a result with expected rows as multisets.
func sameRows(res *extra.Result, want [][]string) error {
	got := 0
	if res != nil {
		got = len(res.Rows)
	}
	if got != len(want) {
		return fmt.Errorf("%d rows, want %d", got, len(want))
	}
	if got == 0 {
		return nil
	}
	render := func(cols []string) string {
		s := ""
		for _, c := range cols {
			s += c + "\x00"
		}
		return s
	}
	g := make([]string, got)
	w := make([]string, got)
	cols := make([]string, len(res.Rows[0]))
	for i, row := range res.Rows {
		for j, v := range row {
			cols[j] = v.String()
		}
		g[i] = render(cols)
		w[i] = render(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row mismatch: got %q, want %q", g[i], w[i])
		}
	}
	return nil
}
