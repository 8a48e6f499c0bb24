package extra

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// openOps opens a DB with the ops plane on an ephemeral port, tracing
// always on and opts besides, loaded with the company schema.
func openOps(t *testing.T, opts ...Option) (*DB, string) {
	t.Helper()
	db, err := Open(append([]Option{
		WithDebugServer("127.0.0.1:0"),
		WithTracing(1, 8),
		WithSlowQueryLog(time.Nanosecond),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	loadCompany(t, db)
	addr := db.DebugAddr()
	if addr == "" {
		t.Fatal("debug server not listening")
	}
	return db, "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerMetrics(t *testing.T) {
	db, base := openOps(t, WithWAL(t.TempDir()))
	db.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	db.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"# TYPE extra_stmt_retrieve_total counter",
		"extra_stmt_retrieve_total 2",
		"# TYPE extra_phase_execute_ns histogram",
		`extra_phase_execute_ns_bucket{le="+Inf"} `,
		"extra_pool_hits_total ",
		// The compile-once plane: the repeated statement hits the plan
		// cache, and its expressions were compiled into closures.
		"extra_plan_cache_hits_total 1",
		"extra_plan_cache_misses_total 1",
		"extra_plan_cache_evictions_total 0",
		"# TYPE extra_plan_cache_size gauge",
		"extra_plan_cache_size 1",
		"extra_expr_compile_count_total ",
		// The front end: the repeated text is an exact memo hit, and
		// every other statement text went to the parser.
		"extra_parse_memo_text_hits_total 1",
		"extra_parse_memo_shape_hits_total 0",
		"# TYPE extra_parse_full_total counter",
		"# TYPE extra_phase_compile_ns histogram",
		// The write path: every publication is timed and sized. The two
		// size histograms are counts and carry no time unit.
		"# TYPE extra_mvcc_commit_freeze_ns histogram",
		"# TYPE extra_mvcc_commit_dirty_objs histogram",
		`extra_mvcc_commit_dirty_pages_bucket{le="+Inf"} `,
		"# TYPE extra_mvcc_commit_decoded histogram",
		"# TYPE extra_mvcc_version gauge",
		// The log: every write the company load made was appended, and
		// each commit waited for its fsync.
		"# TYPE extra_wal_append_records_total counter",
		"# TYPE extra_wal_append_bytes_total counter",
		"# TYPE extra_wal_wait_durable_ns histogram",
		// Each flush times its fsync and counts the records it made
		// durable.
		"# TYPE extra_wal_fsync_ns histogram",
		"# TYPE extra_wal_group_size histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	snap := db.MetricsSnapshot()
	recs, waits := snap.Counters["wal.append.records"], snap.Histograms["wal.wait_durable"].Count
	if recs == 0 || snap.Counters["wal.append.bytes"] < recs || waits == 0 || waits > recs {
		t.Errorf("WAL metrics: %d records, %d bytes, %d waits", recs, snap.Counters["wal.append.bytes"], waits)
	}
	fsyncs, grouped := snap.Histograms["wal.fsync"].Count, snap.Histograms["wal.group.size"]
	if fsyncs == 0 || grouped.Count != fsyncs || grouped.SumNS != recs {
		t.Errorf("WAL flush metrics: %d fsyncs, %d groups holding %d records, %d appended", fsyncs, grouped.Count, grouped.SumNS, recs)
	}
	if want := fmt.Sprintf("extra_wal_append_records_total %d\n", recs); !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
	// Minimal exposition sanity: every sample line ends in a number.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample value not numeric in %q", line)
		}
	}
}

func TestDebugServerStatz(t *testing.T) {
	db, base := openOps(t)
	db.MustQuery(`retrieve (E.name) from E in Employees`)
	code, body := get(t, base+"/statz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var doc struct {
		Metrics struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"metrics"`
		Pool struct {
			Hits uint64 `json:"Hits"`
		} `json:"pool"`
		Tracer struct {
			TracesStarted  uint64 `json:"traces_started"`
			TracesFinished uint64 `json:"traces_finished"`
			Every          int    `json:"sample_every"`
		} `json:"tracer"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("statz not JSON: %v\n%s", err, body)
	}
	if doc.Metrics.Counters["stmt.retrieve"] != 1 {
		t.Errorf("statz counters wrong: %v", doc.Metrics.Counters)
	}
	if doc.Tracer.Every != 1 || doc.Tracer.TracesStarted == 0 {
		t.Errorf("tracer stats wrong: %+v", doc.Tracer)
	}
	if doc.Tracer.TracesStarted != doc.Tracer.TracesFinished {
		t.Errorf("trace leak visible in statz: %+v", doc.Tracer)
	}
}

func TestDebugServerSlowAndTraces(t *testing.T) {
	db, base := openOps(t)
	db.MustQuery(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	code, body := get(t, base+"/slow")
	if code != http.StatusOK {
		t.Fatalf("/slow status %d", code)
	}
	var slow []SlowQuery
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/slow not JSON: %v", err)
	}
	if len(slow) == 0 || slow[len(slow)-1].TraceID == 0 {
		t.Fatalf("slow entries not linked to traces: %+v", slow)
	}
	id := slow[len(slow)-1].TraceID

	code, body = get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var idx []struct {
		ID  uint64 `json:"id"`
		Src string `json:"src"`
	}
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if len(idx) == 0 {
		t.Fatal("trace index empty")
	}

	code, body = get(t, base+"/traces/"+strconv.FormatUint(id, 10))
	if code != http.StatusOK {
		t.Fatalf("/traces/%d status %d", id, code)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 || chrome.TraceEvents[0].Ph != "X" {
		t.Errorf("chrome export malformed: %+v", chrome.TraceEvents)
	}

	if code, _ := get(t, base+"/traces/last"); code != http.StatusOK {
		t.Errorf("/traces/last status %d", code)
	}
	if code, _ := get(t, base+"/traces/999999"); code != http.StatusNotFound {
		t.Errorf("missing trace status %d, want 404", code)
	}
	if code, _ := get(t, base+"/traces/bogus"); code != http.StatusBadRequest {
		t.Errorf("bad trace id status %d, want 400", code)
	}
}

func TestDebugServerPprof(t *testing.T) {
	_, base := openOps(t)
	code, body := get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline status %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index status %d", code)
	}
}

// TestDebugServerLifecycle pins shutdown behavior: labels on while up,
// address freed and labels off after Close.
func TestDebugServerLifecycle(t *testing.T) {
	db, err := Open(WithDebugServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	if !db.labelStmts.Load() {
		t.Error("pprof labels not enabled with the server up")
	}
	addr := db.DebugAddr()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.DebugAddr() != "" {
		t.Error("DebugAddr nonempty after Close")
	}
	if db.labelStmts.Load() {
		t.Error("labels still on after Close")
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
	// A bad address surfaces at Open.
	if _, err := Open(WithDebugServer("256.256.256.256:1")); err == nil {
		t.Error("bad debug address did not error")
	}
}
