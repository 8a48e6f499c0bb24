package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// environment records where and how a set of runs was taken.
type environment struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Sessions   int            `json:"sessions"`
	Kernel     string         `json:"kernel"`
	WALDirFS   string         `json:"wal_dir_filesystem"`
	WALSync    string         `json:"wal_sync"`
	PoolPages  map[string]int `json:"pool_pages"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds_per_workload"`
	BlockOps   map[string]int `json:"block_ops_per_session"`
	TraceOps   map[string]int `json:"traced_statements"`
	Scale      map[string]int `json:"database"`
}

func cstr(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

func describeEnvironment(cfg *config) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sessions:   cfg.sessions,
		WALSync:    "group",
		PoolPages:  map[string]int{},
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		BlockOps:   map[string]int{},
		TraceOps:   map[string]int{},
		Scale: map[string]int{
			"departments": cfg.sc.Depts, "employees": cfg.sc.Emps, "max_kids": cfg.sc.MaxKids,
			"floors": cfg.sc.Floors, "hot_rows_per_stream": cfg.sc.Hot,
		},
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var un syscall.Utsname
	if syscall.Uname(&un) == nil {
		env.Kernel = cstr(un.Sysname[:]) + " " + cstr(un.Release[:])
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(cfg.workDir, &fs) == nil {
		env.WALDirFS = fmt.Sprintf("statfs type 0x%x", uint64(fs.Type))
	}
	for _, w := range workloads {
		pages := w.pool
		if pages == 0 {
			pages = 256
		}
		env.PoolPages[w.name] = pages
		env.BlockOps[w.name] = max(w.blockOps/cfg.blockDiv, 4)
		env.TraceOps[w.name] = max(w.traceOps/cfg.blockDiv, 20)
	}
	return env
}

// reported is one metric in the JSON summary.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
}

// workloadReport is one workload's figures in one set.
type workloadReport struct {
	Workload  string              `json:"workload"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]reported `json:"end_to_end"`
	Classes   map[string]reported `json:"by_class"`
	PerLayer  map[string]reported `json:"per_layer,omitempty"`
	Phases    []phaseCheck        `json:"harness_vs_engine_phase_ms,omitempty"`
	PlanCache *[2]uint64          `json:"engine_plan_cache_hits_misses,omitempty"`
	SpanFile  string              `json:"span_file,omitempty"`
}

type setReport struct {
	Order     []string          `json:"order"`
	Workloads []*workloadReport `json:"workloads"`
}

// summary is the whole report as JSON. Claim stays last and null: this
// benchmark measures; a change that claims a gain says so elsewhere,
// against a baseline taken with this code.
type summary struct {
	Environment  environment   `json:"environment"`
	EndToEnd     []metricDef   `json:"end_to_end_metrics"`
	Interactions []interaction `json:"interactions"`
	Sets         []setReport   `json:"sets"`
	Check        []string      `json:"check_failures"`
	Claim        any           `json:"claim"`
}

// toReported attaches units: a declared metric's from its declaration, a
// printed figure's from where it was recorded.
func toReported(m metricSet, declared []metricDef) map[string]reported {
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
	}
	out := make(map[string]reported, len(m))
	for name, v := range m {
		unit := v.unit
		if unit == "" {
			unit = units[name]
		}
		out[name] = reported{v.v, unit, v.n}
	}
	return out
}

// report is the harness's own mode: every workload, every metric by name
// with unit and sample count; repeat sets with the workload order
// reversed on every other set; with check, sets must agree. The same
// figures go to summary.json in the output directory.
func report(cfg *config, traced bool, repeat int, check bool) (int, error) {
	endToEnd, perLayer := cfg.decl.EndToEnd, cfg.decl.PerLayer
	sum := summary{Environment: describeEnvironment(cfg), EndToEnd: endToEnd, Interactions: interactions, Check: []string{}}
	failed := 0
	for r := 0; r < repeat; r++ {
		order := make([]*workloadSpec, len(workloads))
		for i := range workloads {
			order[i] = &workloads[i]
			if r%2 == 1 {
				order[i] = &workloads[len(workloads)-1-i]
			}
		}
		set := setReport{}
		for _, spec := range order {
			set.Order = append(set.Order, spec.name)
			out, err := runWorkload(cfg, spec)
			if err != nil {
				return 0, err
			}
			e2e, classes := endToEndMetrics(out)
			wr := &workloadReport{
				Workload: spec.name, Attempted: out.attempted, Failed: out.failed,
				EndToEnd: toReported(e2e, endToEnd),
				Classes:  toReported(classes, nil),
			}
			errs := out.errs
			if traced {
				tr, err := runTraced(cfg, spec)
				if err != nil {
					return 0, err
				}
				wr.Attempted += tr.attempted
				wr.Failed += tr.failed
				wr.PerLayer = toReported(tr.metrics, perLayer)
				wr.Phases, wr.PlanCache, wr.SpanFile = tr.phases, &tr.planCache, tr.spanFile
				errs = append(errs, tr.errs...)
			}
			failed += wr.Failed
			set.Workloads = append(set.Workloads, wr)
			printWorkload(r, wr)
			for _, e := range errs {
				fmt.Printf("  WRONG RESULT: %s\n", e)
			}
		}
		sum.Sets = append(sum.Sets, set)
	}
	if check {
		sum.Check = compareSets(sum.Sets, endToEnd)
		for _, f := range sum.Check {
			fmt.Println("CHECK FAILED:", f)
		}
		if len(sum.Check) == 0 {
			fmt.Printf("check: %d sets agree within every end-to-end bound; exact counts match\n", len(sum.Sets))
		}
	}
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return 0, err
	}
	file := filepath.Join(cfg.outDir, "summary.json")
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	fmt.Println("summary written to", file)
	if failed > 0 || len(sum.Check) > 0 {
		return 1, nil
	}
	return 0, nil
}

func printSection(title string, m map[string]reported) {
	if len(m) == 0 {
		return
	}
	fmt.Printf("  %s\n", title)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("    %-38s %14.6g %-6s n=%d\n", n, m[n].Value, m[n].Unit, m[n].N)
	}
}

func printWorkload(set int, wr *workloadReport) {
	fmt.Printf("== set %d · %s · attempted %d, failed %d\n", set+1, wr.Workload, wr.Attempted, wr.Failed)
	printSection("end to end", wr.EndToEnd)
	printSection("by statement class", wr.Classes)
	printSection("per layer (traced run)", wr.PerLayer)
	if len(wr.Phases) > 0 {
		fmt.Printf("  harness spans vs engine phase histograms over the traced statements (report only)\n")
		fmt.Printf("    %-12s %12s %12s\n", "phase", "harness ms", "engine ms")
		for _, p := range wr.Phases {
			fmt.Printf("    %-12s %12.3f %12.3f\n", p.Phase, p.HarnessMs, p.EngineMs)
		}
		fmt.Printf("    engine plan cache over the same statements: %d hits, %d misses\n", wr.PlanCache[0], wr.PlanCache[1])
		fmt.Printf("    spans written to %s\n", wr.SpanFile)
	}
}

// compareSets checks every later set against the first: an end-to-end
// metric may not differ by more than its bound (as a share of the first
// set's value), and the exact counts of the traced run must be equal.
func compareSets(sets []setReport, endToEnd []metricDef) []string {
	failures := []string{}
	if len(sets) < 2 {
		return []string{"check needs -repeat 2 or more"}
	}
	first := map[string]*workloadReport{}
	for _, wr := range sets[0].Workloads {
		first[wr.Workload] = wr
	}
	for s := 1; s < len(sets); s++ {
		for _, wr := range sets[s].Workloads {
			base := first[wr.Workload]
			for _, d := range endToEnd {
				a, b := base.EndToEnd[d.Name].Value, wr.EndToEnd[d.Name].Value
				if a == 0 || math.Abs(b-a)/a > d.Bound {
					failures = append(failures, fmt.Sprintf("%s %s: set 1 %.6g, set %d %.6g, bound %.0f%%", wr.Workload, d.Name, a, s+1, b, d.Bound*100))
				}
			}
			for _, name := range exactCounts {
				a, okA := base.PerLayer[name]
				b, okB := wr.PerLayer[name]
				if okA && okB && a.Value != b.Value {
					failures = append(failures, fmt.Sprintf("%s %s: exact count differs: %v vs %v", wr.Workload, name, a.Value, b.Value))
				}
			}
		}
	}
	return failures
}
