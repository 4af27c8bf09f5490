package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// smallSizes keeps every workload's shape (88 fields, 5 metrics, 32 Hz
// ticks) but shrinks the counts so a run takes well under a second.
func smallSizes() sizes {
	return sizes{
		Shippers:     2,
		Pool:         8,
		ObsTicks:     16,
		SetupReps:    2,
		WarmupS:      0.05,
		HistoryObs:   2,
		HistoryTicks: 256,
		LiveTargets:  2,
		LivePast:     32,
		PanelFields:  2,
		PanelHz:      128,
	}
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSmall runs one workload at small sizes and parses its result line.
func runSmall(t *testing.T, workload string, trace, corrupt bool) (*outcome, string, resultLine) {
	t.Helper()
	cfg := config{
		workload:      workload,
		seed:          7,
		seconds:       0.3,
		trace:         trace,
		workdir:       t.TempDir(),
		sizes:         smallSizes(),
		corruptOracle: corrupt,
	}
	var buf bytes.Buffer
	out, err := run(context.Background(), cfg, &buf)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, buf.String())
	}
	return out, buf.String(), res
}

var workloads = []string{wlDurable, wlWire, wlLive}

func TestWorkloadsPrintEveryMetricAndPassChecks(t *testing.T) {
	// Every end-to-end metric README.md names, with the workloads whose
	// report prints it.
	named := map[string][]string{
		"setup_s": workloads, "ingest_values_per_s": workloads,
		"tick_ack_p50_ms": workloads, "tick_ack_p99_ms": workloads,
		"cpu_ns_per_value": workloads, "panel_fetch_mean_ms": {wlLive},
		"panel_fetch_p50_ms": {wlLive}, "panel_fetch_p99_ms": {wlLive}, "panels_per_s": {wlLive},
		"failed_op_ratio": workloads, "resident_bytes_per_value": workloads,
		"heap_inuse_mb": workloads, "wal_bytes_per_value": {wlDurable, wlLive},
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			out, text, res := runSmall(t, wl, false, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, text)
			}
			for _, c := range out.checks {
				if c.err != nil {
					t.Errorf("check %s: %v", c.name, c.err)
				}
			}
			if len(res.Metrics) != len(e2eJSON) {
				t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(e2eJSON))
			}
			for _, name := range e2eJSON {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != units[name] {
					t.Errorf("result metric %s = %+v, want unit %q", name, m, units[name])
				}
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("result metric %s = %v, want a positive finite value", name, m.Value)
				}
			}
			for name, wls := range named {
				for _, w := range wls {
					if w == wl && !strings.Contains(text, "  "+name+" ") {
						t.Errorf("report lacks %s", name)
					}
				}
			}
		})
	}
}

func TestTracedRunReportsLayers(t *testing.T) {
	specific := map[string][]string{
		wlDurable: {"tsdb.write_batch_us_per_tick", "storage.wal_lock_wait_us_per_tick", "storage.wal_bytes_per_tick"},
		wlWire: {"tsdb.client.writeb_us_per_tick", "tsdb.server.writeb_us_per_tick", "tsdb.server.parse_us_per_tick",
			"tsdb.server.insert_us_per_tick", "resilience.wire_overhead_us_per_tick", "resilience.retries"},
		wlLive: {"tsdb.write_batch_us_per_tick", "storage.wal_bytes_per_tick", "loadgen.late_p99_ms", "loadgen.panel_late_p99_ms",
			"dashboard.fetch_us.live_window", "dashboard.fetch_us.history_footer", "dashboard.fetch_us.history_p99",
			"dashboard.fetch_us.raw", "tsdb.query.exec_us.live_window", "tsdb.query.exec_us.history_footer",
			"tsdb.query.exec_us.history_p99", "tsdb.query.exec_us.raw"},
	}
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			out, text, res := runSmall(t, wl, true, false)
			if !res.Correct {
				t.Fatalf("traced run failed its checks:\n%s", text)
			}
			for _, name := range layerJSON {
				if m, ok := res.Metrics[name]; !ok || m.Unit != units[name] {
					t.Errorf("layer metric %s = %+v, want unit %q", name, m, units[name])
				}
			}
			for _, name := range specific[wl] {
				if _, ok := out.metrics[name]; !ok {
					t.Errorf("traced %s run lacks %s", wl, name)
				}
			}
			for _, name := range []string{"tick", "telemetry.offer"} {
				if len(out.spans.byName()[name]) == 0 {
					t.Errorf("no %s spans recorded", name)
				}
			}
			b, err := os.ReadFile(out.notes["trace_file"])
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []span `json:"spans"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 {
				t.Fatalf("trace file holds no spans (err %v)", err)
			}
			for _, s := range doc.Spans {
				if s.Trace == 0 || s.ID == 0 || s.End < s.Start {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

func TestCorruptOracleFailsRun(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			out, text, res := runSmall(t, wl, false, true)
			if res.Correct || out.correct() || res.Failed == 0 {
				t.Fatalf("a corrupted reference passed:\n%s", text)
			}
			if !strings.Contains(text, "check FAIL") {
				t.Errorf("report names no failed check:\n%s", text)
			}
		})
	}
}

func TestMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", wlDurable, "--seconds", "0"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := mainErr(append(args, "--workdir", t.TempDir()), &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d with output %q, want non-zero and no result", args, code, out.String())
		}
	}
}

func TestStreamSumsAreExact(t *testing.T) {
	st := newStream(3, 0, liveMetrics, 8, 5)
	for _, r := range [][2]int{{0, 0}, {0, 3}, {0, 8}, {5, 10}, {3, 29}, {16, 40}} {
		for m := range liveMetrics {
			for _, f := range []int{0, 41, 87} {
				want := 0.0
				for i := r[0]; i < r[1]; i++ {
					samples, _, _ := st.tick(i)
					want += samples[m].Values[fieldNames[f]]
				}
				if got := st.sum(r[0], r[1], m, f); got != want {
					t.Fatalf("sum[%d,%d) m%d f%d = %v, want %v", r[0], r[1], m, f, got, want)
				}
			}
		}
	}
	if st.tagOf(0) == st.tagOf(1) || st.obs(4) != 0 || st.obs(5) != 1 {
		t.Fatalf("observations do not rotate every 5 ticks")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0.99); q != 5 {
		t.Errorf("p99 = %v, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}
