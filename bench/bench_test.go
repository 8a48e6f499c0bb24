package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	extra "repro"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 0},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	var s []float64
	for i := 10; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got, want := quartileSpread(s), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	//  root [0,100)
	//    a  [10,40)
	//      a1 [15,25)
	//    b  [50,90)
	//  lone [100,130)
	spans := []span{
		{Name: "root", Start: us(0), End: us(100), Parent: -1},
		{Name: "a", Start: us(10), End: us(40), Parent: 0},
		{Name: "a1", Start: us(15), End: us(25), Parent: 1},
		{Name: "b", Start: us(50), End: us(90), Parent: 0},
		{Name: "lone", Start: us(100), End: us(130), Parent: -1},
	}
	want := []time.Duration{us(30), us(20), us(10), us(40), us(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != us(130) { // self times partition the covered time
		t.Errorf("self times sum to %v, want 130µs", sum)
	}
	total, count := stageTotals(spans, func(int) int { return 0 })
	if total["a"] != us(20) || count["a"] != 1 {
		t.Errorf("stageTotals: a = %v ×%d", total["a"], count["a"])
	}
}

// One outlier among many spans of a group must not move the group's
// total: it is the median times the count.
func TestStageTotalsResistOutliers(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	var spans []span
	at := time.Duration(0)
	add := func(stmt int, d time.Duration) {
		spans = append(spans, span{Name: "x", Start: at, End: at + d, Parent: -1, Stmt: stmt})
		at += d
	}
	for i := 0; i < 9; i++ {
		add(i, us(10)) // group 0: nine spans of 10µs …
	}
	add(9, us(5000)) // … and one that met a GC pause
	for i := 10; i < 15; i++ {
		add(i, us(100)) // group 1
	}
	total, count := stageTotals(spans, func(stmt int) int {
		if stmt < 10 {
			return 0
		}
		return 1
	})
	if want := us(10*10 + 5*100); total["x"] != want || count["x"] != 15 {
		t.Errorf("total %v ×%d, want %v ×15", total["x"], count["x"], want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(4)
	tr.begin("outer", 7)
	tr.begin("inner", 7)
	tr.end()
	tr.end()
	tr.begin("next", 8)
	tr.end()
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

// renderStream is a statement stream as text: what is sent and what is
// expected back.
func renderStream(stmts []stmt) string {
	var b bytes.Buffer
	for _, st := range stmts {
		fmt.Fprintf(&b, "%s|%s|%v|%d|%d|%d\n", opNames[st.kind], st.text, st.args, st.slot, st.wantRows, st.userBytes)
	}
	return b.String()
}

func generated(t *testing.T, seed int64) (dump []byte, streams []string) {
	t.Helper()
	c, err := generate(smokeScale, seed)
	if err != nil {
		t.Fatal(err)
	}
	dump, _, err = c.dump()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		g := newGenerator(c, seed, s, mix{point: 14, scan: 4, write: 2, prep: 8, hot: 4, fresh: 2})
		streams = append(streams, renderStream(g.block(500)))
	}
	return dump, streams
}

func TestSameSeedSameInputs(t *testing.T) {
	d1, s1 := generated(t, 5)
	d2, s2 := generated(t, 5)
	if !bytes.Equal(d1, d2) {
		t.Error("same seed, different dump")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("same seed, different statement stream %d", i)
		}
	}
	if s1[0] == s1[1] {
		t.Error("the two streams of one seed are identical")
	}
	d3, s3 := generated(t, 6)
	if bytes.Equal(d1, d3) {
		t.Error("different seed, same dump")
	}
	if s1[0] == s3[0] {
		t.Error("different seed, same statement stream")
	}
}

// The generated dump is exactly what the engine itself would dump for
// that database: Load accepts it, the store is consistent, and Dump
// reproduces it byte for byte.
func TestGeneratedDumpRoundTrips(t *testing.T) {
	c, err := generate(smokeScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	dump, objs, err := c.dump()
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != c.objects || c.objects < smokeScale.Emps+smokeScale.Depts {
		t.Fatalf("%d objects in the dump, model says %d", len(objs), c.objects)
	}
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(bytes.NewReader(dump)); err != nil {
		t.Fatal(err)
	}
	if bad := db.CheckConsistency(); len(bad) > 0 {
		t.Fatalf("loaded database inconsistent: %v", bad)
	}
	var back bytes.Buffer
	if err := db.Dump(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), dump) {
		t.Error("Dump of the loaded database differs from the generated dump")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is well-formed, declares the workloads the harness
// implements, and everything the harness's own tables cite is declared.
func TestDeclaration(t *testing.T) {
	decl, root, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := "[command end_to_end paths per_layer run_seconds workloads]"; fmt.Sprint(keys) != want {
		t.Errorf("BENCHMARK.json keys %v, want %s", keys, want)
	}

	declared := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if declared[name] {
			t.Errorf("name %q used twice", name)
		}
		declared[name] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		check(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	hasSetup := false
	for _, d := range decl.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range decl.EndToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range decl.PerLayer {
		check(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}

	for _, name := range exactCounts {
		if !declared[name] {
			t.Errorf("exact count %s is not declared", name)
		}
	}
	for i, row := range interactions {
		for _, prefix := range row.Layers {
			found := false
			for _, d := range decl.PerLayer {
				found = found || strings.HasPrefix(d.Name, prefix)
			}
			if !found {
				t.Errorf("interaction %d: no per-layer metric starts with %q", i, prefix)
			}
		}
		for _, name := range row.Moves {
			if !declared[name] {
				t.Errorf("interaction %d: moved metric %s is not declared", i, name)
			}
		}
		for _, w := range append(append([]string{}, row.On...), row.NotOn...) {
			if findWorkload(w) == nil {
				t.Errorf("interaction %d: unknown workload %s", i, w)
			}
		}
	}
}

// Two sets that agree pass the check with an empty, not a null, list;
// one metric beyond its bound fails it.
func TestCompareSets(t *testing.T) {
	defs := []metricDef{{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}}
	set := func(v float64) setReport {
		return setReport{Workloads: []*workloadReport{{Workload: "mixed", EndToEnd: map[string]reported{"stmts_per_s": {Value: v}}}}}
	}
	if got := compareSets([]setReport{set(100), set(109)}, defs); got == nil || len(got) != 0 {
		t.Errorf("9 %% apart under a 10 %% bound: %#v", got)
	}
	if got := compareSets([]setReport{set(100), set(111)}, defs); len(got) != 1 {
		t.Errorf("11 %% apart under a 10 %% bound: %#v", got)
	}
}

func smokeConfig(t *testing.T) *config {
	t.Helper()
	decl, _, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	return &config{
		decl: decl, sc: smokeScale, seed: 1, seconds: 0.2, sessions: 2, setups: 1,
		tailAppends: 10, blockDiv: 50, workDir: dir, outDir: dir,
	}
}

// TestSmoke runs all four workloads at 1/50 scale, untraced and traced:
// no statement may fail its check, every declared metric must be
// emitted, and nothing undeclared may be.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t)
	for i := range workloads {
		spec := &workloads[i]
		t.Run(spec.name, func(t *testing.T) {
			out, err := runWorkload(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("untraced: %d of %d statements failed: %v", out.failed, out.attempted, out.errs)
			}
			e2e, _ := endToEndMetrics(out)
			sameNames(t, "end_to_end", e2e, cfg.decl.EndToEnd)
			for name, v := range e2e {
				if v.v <= 0 {
					t.Errorf("end-to-end metric %s = %v; must never be 0", name, v.v)
				}
			}
			tr, err := runTraced(cfg, spec)
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 || tr.attempted == 0 {
				t.Errorf("traced: %d of %d statements failed: %v", tr.failed, tr.attempted, tr.errs)
			}
			sameNames(t, "per_layer", tr.metrics, cfg.decl.PerLayer)
			if cov := tr.metrics["trace.coverage"].v; cov <= 0 {
				t.Errorf("trace.coverage = %v", cov)
			}
			if _, err := os.Stat(tr.spanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func sameNames(t *testing.T, what string, got metricSet, declared []metricDef) {
	t.Helper()
	want := map[string]bool{}
	for _, d := range declared {
		want[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s: declared metric %s not emitted", what, d.Name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("%s: metric %s emitted but not declared", what, name)
		}
	}
}

// The oracle must notice a wrong answer, not only an error.
func TestOracleCatchesWrongRows(t *testing.T) {
	c, err := generate(smokeScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(c, 1, 0, mix{scan: 1})
	st := g.next() // scan_project
	want := c.wantFull(st)
	if len(want) == 0 || len(want) != st.wantRows {
		t.Fatalf("model: %d full rows, count %d", len(want), st.wantRows)
	}
	inst := &instance{c: c}
	inst.judge(&inst.oracle, &st, &extra.Result{}, nil, false)
	if inst.oracle.failed != 1 {
		t.Error("a result with the wrong row count passed")
	}
	inst.judge(&inst.oracle, &st, nil, fmt.Errorf("boom"), false)
	if inst.oracle.failed != 2 || inst.oracle.attempted != 2 {
		t.Errorf("an errored statement passed: %+v", inst.oracle.failed)
	}
}
