package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// promName maps a registry metric name to a Prometheus metric name:
// an extra_ namespace prefix, dots to underscores, and any other
// character outside [a-zA-Z0-9_:] to underscore. "pool.hits" becomes
// "extra_pool_hits".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("extra_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): counters as <name>_total with
// TYPE counter, gauges with TYPE gauge, and histograms as native
// Prometheus histograms — cumulative le buckets (_bucket{le="..."}),
// _sum and _count, in nanoseconds under a _ns name for durations and
// under the bare name for counts. Metric names are sorted, so two
// snapshots of the same state render identically.
//
// extra:output
func (s Snapshot) WritePrometheus(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := promName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		pn := promName(n)
		if !h.Counts {
			pn += "_ns"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		// Snapshot buckets are per-bucket counts in bucket order;
		// Prometheus buckets are cumulative.
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			if b.Upper == ^uint64(0) {
				// The overflow bucket is +Inf; emitted below.
				continue
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Upper, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", pn, h.SumNS, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}
