package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricSpec names one metric of the BENCHMARK.json contract.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics an untraced run reports on its last line. Each
// workload maps op_ms_* onto its own op: one core.Run solve for batch-*,
// one read from its scheduled send time for serve-zipf. rss_peak_mb and
// fail_ratio are printed but not listed: see README.md.
var endToEnd = []metricSpec{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports on its last line. Counts
// are per traced op unless named as a ratio or a base; a layer a workload
// does not exercise reports 0.
var perLayer = []metricSpec{
	{"core.reductions", "count"},
	{"core.cycle_ms", "ms"},
	{"core.updates_created", "count"},
	{"core.wasted_ratio", "ratio"},
	{"core.hold_parked", "count"},
	{"core.hold_drained", "count"},
	{"runtime.blocked_frac", "ratio"},
	{"runtime.app_delivered", "count"},
	{"runtime.idle_work", "count"},
	{"runtime.blocks", "count"},
	{"runtime.busiest_pe_share", "ratio"},
	{"runtime.pe_events", "count"},
	{"tram.items_per_batch", "count"},
	{"tram.batches", "count"},
	{"tram.auto_flush_share", "ratio"},
	{"tram.flushes", "count"},
	{"netsim.messages_sent", "count"},
	{"netsim.max_queue_depth", "count"},
	{"sockfab.boundary_msgs", "count"},
	{"engine.hit_ratio", "ratio"},
	{"engine.queries", "count"},
	{"engine.singleflight_follows", "count"},
	{"engine.shed", "count"},
	{"engine.miss_ms_p50", "ms"},
	{"engine.hit_ms_p50", "ms"},
	{"engine.path_ms_p50", "ms"},
	{"engine.p2p_settled", "count"},
	{"engine.http_overhead_ms", "ms"},
	{"dynamic.mutate_ms", "ms"},
	{"dynamic.invalidated_per_batch", "count"},
	{"dynamic.repaired_per_batch", "count"},
	{"dynamic.batches", "count"},
	{"seq.dijkstra_ms_p50", "ms"},
	{"core.vs_dijkstra", "ratio"},
	{"gen.graph_s", "s"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
	{"loadgen.lag_ms_p90", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.dropped", "count"},
	{"trace.ops", "count"},
	{"trace.plain_ops", "count"},
}

// metric is one measured value. N is the sample count behind a percentile
// or the base of a ratio, when there is one.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// failure names one failed op and its cause.
type failure struct {
	Workload string `json:"workload"`
	Op       string `json:"op"`
	Cause    string `json:"cause"`
}

// report is everything one run measured. It doubles as the result record
// written to disk, so it carries the host fingerprint.
type report struct {
	Host      fingerprint `json:"host"`
	Workload  string      `json:"workload"`
	Seed      uint64      `json:"seed"`
	Seconds   int         `json:"seconds"`
	Trace     bool        `json:"trace"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	// Wrong counts failed ops whose answer was incorrect (oracle or ledger
	// mismatch), as opposed to ops that errored, timed out or were shed.
	Wrong    int       `json:"wrong"`
	Metrics  []metric  `json:"metrics"`
	Failures []failure `json:"failures"`
}

func (r *report) add(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// fail counts one failed op; wrong marks an incorrect answer.
func (r *report) fail(op, cause string, wrong bool) {
	r.Failed++
	if wrong {
		r.Wrong++
	}
	r.Failures = append(r.Failures, failure{Workload: r.Workload, Op: op, Cause: cause})
}

func (r *report) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// resultLine is the contract's last stdout line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the contract metrics: every end-to-end metric from an
// untraced run, every per-layer metric from a traced one.
func (r *report) result() (resultLine, error) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	out := resultLine{
		Correct:   r.Wrong == 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]resultValue, len(specs)),
	}
	for _, s := range specs {
		m, ok := r.metric(s.Name)
		switch {
		case ok && m.Unit != s.Unit:
			return out, fmt.Errorf("metric %s measured in %s, contract says %s", s.Name, m.Unit, s.Unit)
		case !ok && !r.Trace:
			return out, fmt.Errorf("workload %s did not measure %s", r.Workload, s.Name)
		}
		out.Metrics[s.Name] = resultValue{Value: m.Value, Unit: s.Unit}
	}
	return out, nil
}

// maxPrintedFailures bounds the failure lines on stdout; the record file
// keeps all of them.
const maxPrintedFailures = 20

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# host %s tree=%s\n", r.Host.hostKey(), r.Host.treeKey())
	for _, m := range r.Metrics {
		if m.N > 0 {
			fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for i, f := range r.Failures {
		if i == maxPrintedFailures {
			fmt.Fprintf(w, "fail ... %d more in the record file\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintf(w, "fail %s op=%s: %s\n", f.Workload, f.Op, f.Cause)
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// errHostMismatch is returned when two records come from different hosts:
// their timings are not comparable.
var errHostMismatch = errors.New("refusing to compare timings across different host fingerprints")

// compareRecords prints b's metrics against a's. It refuses records from
// different hosts or of different workloads or modes.
func compareRecords(w io.Writer, a, b *report) error {
	if a.Host.hostKey() != b.Host.hostKey() {
		return fmt.Errorf("%w:\n  a: %s\n  b: %s", errHostMismatch, a.Host.hostKey(), b.Host.hostKey())
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare %s/trace=%v/%ds with %s/trace=%v/%ds",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	fmt.Fprintf(w, "# %s  a: tree=%s seed=%d  b: tree=%s seed=%d\n",
		a.Workload, a.Host.treeKey(), a.Seed, b.Host.treeKey(), b.Seed)
	fmt.Fprintf(w, "%-32s %14s %14s %8s\n", "metric", "a", "b", "b/a")
	for _, mb := range b.Metrics {
		ma, ok := a.metric(mb.Name)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-32s %14.6g %14.6g %8.3f %s\n", mb.Name, ma.Value, mb.Value, ratio(mb.Value, ma.Value), mb.Unit)
	}
	return nil
}

// quantile returns the q-quantile of xs by the nearest-rank rule. It sorts
// xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
