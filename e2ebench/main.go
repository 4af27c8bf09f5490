// Command e2ebench is the repository's end-to-end benchmark: it drives
// seeded, telemetry-shaped workloads through the public entry points of
// the collector, the embedded and wire TSDB and the dashboard layer,
// checks that every acknowledged value arrived, and prints one JSON
// result line. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workload names.
const (
	wlDurable = "ingest-durable"
	wlWire    = "ingest-wire"
	wlLive    = "dashboard-live"
)

// units names the unit of every metric the benchmark can print.
var units = map[string]string{
	"setup_s":                  "s",
	"ingest_values_per_s":      "values/s",
	"tick_ack_p50_ms":          "ms",
	"tick_ack_p99_ms":          "ms",
	"cpu_ns_per_value":         "ns",
	"panel_fetch_mean_ms":      "ms",
	"panel_fetch_p50_ms":       "ms",
	"panel_fetch_p99_ms":       "ms",
	"panels_per_s":             "panels/s",
	"failed_op_ratio":          "ratio",
	"resident_bytes_per_value": "B",
	"wal_bytes_per_value":      "B",
	"heap_inuse_mb":            "MB",

	"telemetry.offer_self_us_per_tick":     "us",
	"telemetry.offer_allocs_per_tick":      "count",
	"tsdb.encode_ns_per_value":             "ns",
	"tsdb.encode_allocs_per_value":         "count",
	"tsdb.decode_ns_per_value":             "ns",
	"tsdb.decode_allocs_per_value":         "count",
	"tsdb.insert_ns_per_value":             "ns",
	"tsdb.insert_allocs_per_value":         "count",
	"tsdb.write_batch_us_per_tick":         "us",
	"storage.append_fsync_us":              "us",
	"storage.fsync_per_s":                  "1/s",
	"storage.wal_lock_wait_us_per_tick":    "us",
	"storage.wal_bytes_per_tick":           "B",
	"tsdb.client.writeb_us_per_tick":       "us",
	"tsdb.server.writeb_us_per_tick":       "us",
	"tsdb.server.parse_us_per_tick":        "us",
	"tsdb.server.insert_us_per_tick":       "us",
	"resilience.wire_overhead_us_per_tick": "us",
	"resilience.retries":                   "count",
	"dashboard.rows_per_fetch":             "count",
	"tsdb.query.cache_hit_ratio":           "ratio",
	"tsdb.query.cache_evictions":           "count",
	"tsdb.query.cache_invalidations":       "count",
	"tsdb.storage.blocks":                  "count",
	"tsdb.storage.compression_ratio":       "ratio",
	"loadgen.late_p99_ms":                  "ms",
	"loadgen.panel_late_p99_ms":            "ms",
	"runtime.alloc_bytes_per_value":        "B",
	"runtime.gc_cycles":                    "count",
	"trace.overhead_tick_ack_p50_pct":      "%",
	"host.steal_pct":                       "%",
}

// panelClasses are the dashboard-live panel classes.
var panelClasses = []string{"live_window", "history_footer", "history_p99", "raw"}

func init() {
	for _, c := range panelClasses {
		units["dashboard.fetch_us."+c] = "us"
		units["tsdb.query.exec_us."+c] = "us"
	}
}

// e2eJSON are the end-to-end metrics of the result line (trace 0):
// those every workload measures, that are never zero, that cover all of
// a workload's work and that repeat across seeds within their bound even
// while the host steals CPU time. BENCHMARK.json lists the same names;
// the report prints the rest.
var e2eJSON = []string{"setup_s", "cpu_ns_per_value"}

// layerJSON are the per-layer metrics of the result line (trace 1):
// those every workload measures. Workload-specific layer metrics are
// printed in the report and stored in the trace file.
var layerJSON = []string{
	"telemetry.offer_self_us_per_tick", "telemetry.offer_allocs_per_tick",
	"tsdb.encode_ns_per_value", "tsdb.encode_allocs_per_value",
	"tsdb.decode_ns_per_value", "tsdb.decode_allocs_per_value",
	"tsdb.insert_ns_per_value", "tsdb.insert_allocs_per_value",
	"storage.append_fsync_us", "storage.fsync_per_s",
	"dashboard.rows_per_fetch",
	"tsdb.query.cache_hit_ratio", "tsdb.query.cache_evictions",
	"tsdb.query.cache_invalidations",
	"tsdb.storage.blocks", "tsdb.storage.compression_ratio",
	"runtime.alloc_bytes_per_value", "runtime.gc_cycles",
	"trace.overhead_tick_ack_p50_pct",
}

// sizes are the workload dimensions; defaultSizes documents the ones the
// benchmark runs with.
type sizes struct {
	Shippers     int     `json:"shippers"`      // closed-loop shippers (ingest workloads)
	Pool         int     `json:"tick_pool"`     // distinct tick templates per stream
	ObsTicks     int     `json:"obs_ticks"`     // ticks per observation of a closed-loop shipper
	SetupReps    int     `json:"setup_reps"`    // set-ups per run; setup_s is their median
	WarmupS      float64 `json:"warmup_s"`      // untimed closed-loop warm-up
	HistoryObs   int     `json:"history_obs"`   // finished observations preloaded
	HistoryTicks int     `json:"history_ticks"` // ticks per finished observation
	LiveTargets  int     `json:"live_targets"`  // open-loop 32 Hz targets
	LivePast     int     `json:"live_past"`     // preloaded ticks per live target
	PanelFields  int     `json:"panel_fields"`  // fields the dashboard panels chart
	PanelHz      int     `json:"panel_hz"`      // open-loop panel fetches per second
}

func defaultSizes() sizes {
	return sizes{
		Shippers:     min(2, runtime.NumCPU()),
		Pool:         128,
		ObsTicks:     1024,
		SetupReps:    21,
		WarmupS:      3,
		HistoryObs:   2,
		HistoryTicks: 4096,
		LiveTargets:  4,
		LivePast:     512,
		PanelFields:  8,
		PanelHz:      1024,
	}
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	sizes    sizes
	// corruptOracle perturbs one reference aggregate before the checks
	// run; the harness tests use it to prove a wrong answer fails.
	corruptOracle bool
}

// check is one correctness check and its outcome.
type check struct {
	name string
	err  error
}

// outcome is what one workload run measured.
type outcome struct {
	metrics   map[string]float64
	notes     map[string]string
	checks    []check
	attempted int
	failed    int
	spans     *spanLog
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
}

func (o *outcome) set(name string, v float64, note string) {
	o.metrics[name] = v
	if note != "" {
		o.notes[name] = note
	}
}

// expect records a correctness check; a failed check counts as a failed op.
func (o *outcome) expect(name string, err error) {
	o.checks = append(o.checks, check{name, err})
	o.attempted++
	if err != nil {
		o.failed++
	}
}

func (o *outcome) correct() bool { return o.failed == 0 }

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+wlDurable+", "+wlWire+" or "+wlLive)
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "timed region length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	workdir := fs.String("workdir", ".bench_build/e2ebench-data", "directory for data files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workdir:  *workdir,
		sizes:    defaultSizes(),
	}
	out, err := run(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !out.correct() {
		fmt.Fprintln(stderr, "e2ebench: correctness checks failed")
		return 1
	}
	return 0
}

// run executes one workload, prints the report and the result line, and
// returns what it measured.
func run(ctx context.Context, cfg config, w io.Writer) (*outcome, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var fn func(context.Context, config, string) (*outcome, error)
	switch cfg.workload {
	case wlDurable:
		fn = runDurable
	case wlWire:
		fn = runWire
	case wlLive:
		fn = runLive
	default:
		return nil, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	facts := machineFacts(dir)
	out, err := fn(ctx, cfg, dir)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		extra := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "machine": facts, "sizes": cfg.sizes, "layers": out.metrics}
		if err := out.spans.write(path, extra); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		out.notes["trace_file"] = path
	}
	if err := report(w, cfg, facts, out); err != nil {
		return nil, err
	}
	return out, nil
}

// report prints the human-readable report and, last, the result line.
func report(w io.Writer, cfg config, facts map[string]any, out *outcome) error {
	fmt.Fprintf(w, "e2ebench workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fb, _ := json.Marshal(facts)
	fmt.Fprintf(w, "machine: %s\n", fb)
	sb, _ := json.Marshal(cfg.sizes)
	fmt.Fprintf(w, "sizes: %s\n", sb)
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := out.notes[n]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-40s %16.6g %-9s%s\n", n, out.metrics[n], units[n], note)
	}
	if p, ok := out.notes["trace_file"]; ok {
		fmt.Fprintf(w, "trace file: %s\n", p)
	}
	for _, c := range out.checks {
		status := "ok  "
		if c.err != nil {
			status = "FAIL"
		}
		msg := c.name
		if c.err != nil {
			msg += ": " + c.err.Error()
		}
		fmt.Fprintf(w, "check %s %s\n", status, msg)
	}
	keys := e2eJSON
	if cfg.trace {
		keys = layerJSON
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	var missing []string
	for _, k := range keys {
		v, ok := out.metrics[k]
		if !ok {
			missing = append(missing, k)
			continue
		}
		metrics[k] = val{v, units[k]}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not measure %s", cfg.workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// errf joins a check's findings into one error (nil when none).
func errf(problems []string) error {
	if len(problems) == 0 {
		return nil
	}
	if len(problems) > 3 {
		problems = append(problems[:3], fmt.Sprintf("and %d more", len(problems)-3))
	}
	return errors.New(strings.Join(problems, "; "))
}
