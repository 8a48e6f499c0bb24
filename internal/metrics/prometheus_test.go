package metrics

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"pool.hits":    "extra_pool_hits",
		"stmt.latency": "extra_stmt_latency",
		"a-b c":        "extra_a_b_c",
		"ok_name:sub":  "extra_ok_name:sub",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Counter("stmt.retrieve").Add(7)
	r.Gauge("pool.occupancy").Set(-3)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE extra_stmt_retrieve_total counter\n",
		"extra_stmt_retrieve_total 7\n",
		"# TYPE extra_pool_occupancy gauge\n",
		"extra_pool_occupancy -3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("phase.execute")
	h.Observe(3 * time.Nanosecond)   // bucket le=3
	h.Observe(3 * time.Nanosecond)   // bucket le=3
	h.Observe(100 * time.Nanosecond) // bucket le=127
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE extra_phase_execute_ns histogram\n",
		`extra_phase_execute_ns_bucket{le="3"} 2` + "\n",
		`extra_phase_execute_ns_bucket{le="127"} 3` + "\n", // cumulative
		`extra_phase_execute_ns_bucket{le="+Inf"} 3` + "\n",
		"extra_phase_execute_ns_sum 106\n",
		"extra_phase_execute_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCountHistogramRendering pins the unit of a histogram of counts:
// no _ns in the exposition name, no duration suffix in the text form.
func TestCountHistogramRendering(t *testing.T) {
	r := NewRegistry()
	h := r.CountHistogram("mvcc.commit.dirty_objs")
	h.ObserveCount(2)
	h.ObserveCount(5)
	snap := r.Snapshot()
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE extra_mvcc_commit_dirty_objs histogram\n",
		`extra_mvcc_commit_dirty_objs_bucket{le="3"} 1` + "\n",
		`extra_mvcc_commit_dirty_objs_bucket{le="+Inf"} 2` + "\n",
		"extra_mvcc_commit_dirty_objs_sum 7\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
	CheckExposition(t, b.String())
	b.Reset()
	if err := snap.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := "count=2 mean=3 p50=5 p95=5 p99=5 max=5\n"; !strings.HasSuffix(b.String(), want) {
		t.Errorf("text form %q does not end in %q", b.String(), want)
	}
}

// TestWritePrometheusDeterministic pins rendering order: two snapshots
// of the same state produce byte-identical expositions (metric names
// are sorted, never map order).
func TestWritePrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.middle", "pool.hits", "stmt.errors"} {
		r.Counter(n).Inc()
	}
	r.Histogram("phase.parse").Observe(time.Microsecond)
	r.Gauge("g.x").Set(1)
	var b1, b2 strings.Builder
	if err := r.Snapshot().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("exposition not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	// Counters appear in sorted order.
	out := b1.String()
	prev := -1
	for _, n := range []string{"extra_a_first_total ", "extra_m_middle_total ", "extra_pool_hits_total ", "extra_stmt_errors_total ", "extra_z_last_total "} {
		i := strings.Index(out, n)
		if i < 0 || i < prev {
			t.Fatalf("counter %q out of order (index %d after %d):\n%s", n, i, prev, out)
		}
		prev = i
	}
}

// TestWritePrometheusParses runs the exposition through a strict
// line-level parser of the text format: every line is a comment or a
// `name[{labels}] value` sample, histogram bucket counts are
// monotonically non-decreasing, and every histogram has +Inf, _sum and
// _count.
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("stmt.retrieve").Add(2)
	h := r.Histogram("stmt.latency")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	CheckExposition(t, b.String())
}

// CheckExposition validates Prometheus text-format output line by line.
func CheckExposition(t *testing.T, out string) {
	t.Helper()
	lastBucket := make(map[string]uint64)
	sawInf := make(map[string]bool)
	for ln, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: no sample value in %q", ln+1, line)
			continue
		}
		name, val := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			t.Errorf("line %d: sample value %q not a number", ln+1, val)
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			base, labels := name[:i], name[i:]
			if !strings.HasSuffix(labels, "\"}") || !strings.Contains(labels, "le=\"") {
				t.Errorf("line %d: malformed labels %q", ln+1, labels)
				continue
			}
			if strings.HasSuffix(base, "_bucket") {
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					t.Errorf("line %d: bucket count %q", ln+1, val)
					continue
				}
				if n < lastBucket[base] {
					t.Errorf("line %d: bucket counts not cumulative: %d after %d", ln+1, n, lastBucket[base])
				}
				lastBucket[base] = n
				if strings.Contains(labels, `le="+Inf"`) {
					sawInf[base] = true
				}
			}
			continue
		}
		for _, r := range name {
			ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == ':'
			if !ok {
				t.Errorf("line %d: invalid metric name %q", ln+1, name)
				break
			}
		}
	}
	for base := range lastBucket {
		if !sawInf[base] {
			t.Errorf("histogram %s has no +Inf bucket", base)
		}
		stem := strings.TrimSuffix(base, "_bucket")
		if !strings.Contains(out, stem+"_sum ") || !strings.Contains(out, stem+"_count ") {
			t.Errorf("histogram %s missing _sum/_count", stem)
		}
	}
}
