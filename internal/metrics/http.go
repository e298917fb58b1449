package metrics

import (
	"fmt"
	"net/http"
	"sort"
	"time"
)

// Handler returns an http.Handler rendering the registry (and, when
// non-nil, the slow-query log) as plain text — one metric per line,
// sorted by name. cmd/ediserver mounts it next to expvar and pprof so an
// operator can scrape the same numbers SYS_METRICS serves over SQL.
func Handler(r *Registry, slow *SlowLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, s := range r.Snapshot() {
			switch s.Kind {
			case "histogram":
				fmt.Fprintf(w, "%s count=%d sum_ms=%.3f avg_ms=%.3f p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f max_ms=%.3f\n",
					s.Name, s.Count,
					ms(s.Hist.Sum), ms(s.Hist.Avg()), ms(s.Hist.P50), ms(s.Hist.P95), ms(s.Hist.P99), ms(s.Hist.Max))
			case "values":
				v := s.Values
				fmt.Fprintf(w, "%s count=%d sum=%d avg=%.3f p50=%d p95=%d p99=%d max=%d\n",
					s.Name, s.Count, v.Sum, v.Avg(), v.P50, v.P95, v.P99, v.Max)
			default:
				fmt.Fprintf(w, "%s %d\n", s.Name, s.Count)
			}
		}
		if slow == nil {
			return
		}
		entries := slow.Snapshot()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
		for _, e := range entries {
			fmt.Fprintf(w, "slowlog seq=%d ms=%.3f scanned=%d returned=%d err=%q sql=%q\n",
				e.Seq, ms(e.Duration), e.RowsScanned, e.RowsReturned, e.Err, e.SQL)
		}
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
