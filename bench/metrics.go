package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// declaration is BENCHMARK.json, the one place where the benchmark's
// workloads and metrics are declared: names, units, directions, bounds.
// The harness reads it and emits exactly what it declares.
type declaration struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef declares one metric. Bound, on end-to-end metrics only, is
// the share of the parent's median by which the metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDeclaration reads BENCHMARK.json from the root of the checkout,
// which is the working directory (the driver's way) or its parent (`go
// run .` and `go test` inside bench/), and returns that root with it.
func loadDeclaration() (*declaration, string, error) {
	for _, root := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var d declaration
		if err := json.Unmarshal(data, &d); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &d, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found: run from the root of a checkout or from bench/")
}

// interaction is one row of the table later changes cite: which
// end-to-end metrics a group of per-layer metrics should move, on which
// workloads, and where a change to that group must not show. Layers
// names per-layer metrics by prefix ("parse." is every parse metric).
type interaction struct {
	Layers      []string `json:"per_layer"`
	Moves       []string `json:"moves"`
	On          []string `json:"on"`
	NotOn       []string `json:"not_on"`
	Explanation string   `json:"note,omitempty"`
}

var interactions = []interaction{
	{
		Layers: []string{"parse.", "sema.", "algebra.", "exec.compile_", "session.adhoc_miss_p50_us", "session.plan_cache_hit_frac", "trace.front_end_share"},
		Moves:  []string{"stmt_p50_ms", "stmt_p95_ms", "stmts_per_s", "cpu_ms_per_stmt"},
		On:     []string{"point_read"}, NotOn: []string{"scan_join", "durable_write"},
	},
	{
		Layers: []string{"exec.run_", "exec.ns_per_row_scanned", "exec.allocs_per_row_scanned", "exec.deref_cache_hit_frac", "object.scan_ns_per_obj", "session.alloc_b_per_stmt"},
		Moves:  []string{"stmt_p50_ms", "stmts_per_s", "cpu_ms_per_stmt"},
		On:     []string{"scan_join", "mixed"}, NotOn: []string{"point_read", "durable_write"},
		Explanation: "on mixed it is stmt_p95_ms that moves, through scans and GC pressure",
	},
	{
		Layers: []string{"object.commit_", "object.insert_ns", "object.update_ns", "exec.update_ns_per_stmt"},
		Moves:  []string{"stmt_p50_ms", "stmt_p95_ms", "stmts_per_s", "setup_s", "session.write_p50_ms", "session.write_p95_ms"},
		On:     []string{"durable_write", "mixed"}, NotOn: []string{"point_read", "scan_join"},
		Explanation: "p50 is the plain commit, p95 the every-8th flattening one; setup_s moves through Load",
	},
	{
		Layers: []string{"object.get_ns_depth1", "object.get_ns_depth7", "object.heap_b_per_obj"},
		Moves:  []string{"stmt_p50_ms", "session.read_p50_ms", "heap_b_per_obj"},
		On:     []string{"mixed"}, NotOn: []string{"point_read"},
		Explanation: "a quiet database sits at depth 1 or less; heap_b_per_obj moves everywhere",
	},
	{
		Layers: []string{"storage.heap_", "storage.pool_"},
		Moves:  []string{"stmt_p50_ms", "session.write_p50_ms"},
		On:     []string{"durable_write"}, NotOn: []string{"point_read", "scan_join", "mixed"},
		Explanation: "pool < heap only on durable_write; snapshot reads never touch the pool",
	},
	{
		Layers: []string{"storage.btree_", "object.index_lookup_ns"},
		Moves:  []string{"stmt_p50_ms"},
		On:     []string{"point_read", "durable_write"}, NotOn: []string{"scan_join"},
		Explanation: "lookups on point_read; one tree clone per publication on durable_write",
	},
	{
		Layers: []string{"codec."},
		Moves:  []string{"setup_s", "stmt_p50_ms", "wal.recovery_s", "wal.checkpoint_s", "wal.b_per_user_b"},
		On:     []string{"durable_write"}, NotOn: []string{"point_read"},
	},
	{
		Layers: []string{"wal."},
		Moves:  []string{"stmt_p50_ms", "session.write_p50_ms", "wal.b_per_user_b", "wal.recovery_s"},
		On:     []string{"durable_write", "mixed"}, NotOn: []string{"point_read", "scan_join"},
		Explanation: "once commits are short enough to overlap an fsync, wal.commits_per_fsync > 1 frees the follower's wait",
	},
}

// measure is one measured number with how many samples stand behind it.
// unit is empty for a declared metric, whose declaration has it.
type measure struct {
	v    float64
	n    int
	unit string
}

// metricSet maps metric name to measurement.
type metricSet map[string]measure

// set records a declared metric; figure records one that is only printed.
func (m metricSet) set(name string, v float64, n int) { m[name] = measure{v: v, n: n} }
func (m metricSet) figure(name, unit string, v float64, n int) {
	m[name] = measure{v, n, unit}
}

// endToEndMetrics derives the end-to-end metrics, and the per-class
// figures the report prints beside them, from one workload run. All are
// as measured: medians over the run's blocks or set-ups, percentiles over
// its statements.
func endToEndMetrics(out *outcome) (e2e, classes metricSet) {
	e2e, classes = metricSet{}, metricSet{}
	w := out.win
	all, reads, writes := w.all()
	allMs := all.msSorted()
	e2e.set("setup_s", median(out.setupS), len(out.setupS))
	e2e.set("stmts_per_s", median(w.blockRate), len(w.blockRate))
	e2e.set("stmt_p50_ms", percentile(allMs, 50), len(allMs))
	e2e.set("stmt_p95_ms", percentile(allMs, 95), len(allMs))
	e2e.set("cpu_ms_per_stmt", median(w.blockCPUms), len(w.blockCPUms))
	e2e.set("heap_b_per_obj", out.heapB, 1)

	lat := func(prefix string, l latencies) {
		if len(l) == 0 {
			return
		}
		ms := l.msSorted()
		classes.figure(prefix+"_p50_ms", "ms", percentile(ms, 50), len(ms))
		if p := supportedTail(len(ms)); p > 0 {
			tail := strings.ReplaceAll(fmt.Sprint(p), ".", "_") // 99.9 → p99_9
			classes.figure(prefix+"_p"+tail+"_ms", "ms", percentile(ms, p), len(ms))
		}
	}
	lat("read", reads)
	lat("write", writes)
	for k := opKind(0); k < numOpKinds; k++ {
		if len(w.byKind[k]) > 0 {
			ms := w.byKind[k].msSorted()
			classes.figure(opNames[k]+"_p50_us", "us", percentile(ms, 50)*1000, len(ms))
		}
	}
	if w.userBytes > 0 {
		classes.figure("wal_b_per_user_b", "ratio", float64(w.walBytes)/float64(w.userBytes), w.commits)
	}
	if out.tail != nil {
		classes.figure("checkpoint_s", "s", out.tail.checkpointS, 1)
		classes.figure("recovery_s", "s", out.tail.recoveryS, 1)
	}
	classes.figure("failed_frac", "ratio", float64(out.failed)/float64(max(out.attempted, 1)), out.attempted)
	return e2e, classes
}
