package superdb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pmove/internal/docdb"
	"pmove/internal/kb"
	"pmove/internal/ontology"
	"pmove/internal/topo"
	"pmove/internal/tsdb"
)

func testKB(t *testing.T, preset string) *kb.KB {
	t.Helper()
	doc, err := topo.NewProber().Probe(topo.MustPreset(preset))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kb.Generate(doc, kb.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// seedObservation writes a small series and returns the matching entry.
func seedObservation(t *testing.T, local *tsdb.DB, host, tag string) *kb.Observation {
	t.Helper()
	for i := int64(0); i < 10; i++ {
		if err := local.WritePoint(tsdb.Point{
			Measurement: "perfevent_hwcounters_X",
			Tags:        map[string]string{"tag": tag},
			Fields:      map[string]float64{"_cpu0": float64(i), "_cpu1": float64(i * 2)},
			Time:        i * 1e9,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return &kb.Observation{
		ID: "obs:" + tag, Type: "ObservationInterface", Tag: tag, Host: host,
		Command: "spmv",
		Metrics: []kb.MetricRef{{Measurement: "perfevent_hwcounters_X", Fields: []string{"_cpu0", "_cpu1"}}},
	}
}

func TestReportKBAndHosts(t *testing.T) {
	s := New()
	if err := s.ReportKB(testKB(t, topo.PresetSKX)); err != nil {
		t.Fatal(err)
	}
	if err := s.ReportKB(testKB(t, topo.PresetICL)); err != nil {
		t.Fatal(err)
	}
	// Re-reporting is an upsert, not a duplicate.
	if err := s.ReportKB(testKB(t, topo.PresetSKX)); err != nil {
		t.Fatal(err)
	}
	hosts := s.Hosts()
	if len(hosts) != 2 || hosts[0] != "icl" || hosts[1] != "skx" {
		t.Errorf("hosts = %v", hosts)
	}
}

// backend is one global store under the shared report tests: the
// embedded SuperDB, or a Remote whose servers run on global's stores.
type backend struct {
	name   string
	global *SuperDB
	report func(o *kb.Observation, local *tsdb.DB, mode ReportMode) error
}

// backends brings up a fresh instance of every backend: both report
// through one reporter, so both are held to the same assertions.
func backends(t *testing.T) []backend {
	t.Helper()
	embedded := New()
	served := New()
	r, err := DialRemote(serve(t, served.Docs, served.TS))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return []backend{
		{"embedded", embedded, embedded.ReportObservation},
		{"remote", served, func(o *kb.Observation, local *tsdb.DB, mode ReportMode) error {
			return r.ReportObservationContext(context.Background(), o, local, mode)
		}},
	}
}

// observationDoc returns the single uploaded observation document.
func observationDoc(t *testing.T, g *SuperDB) docdb.Doc {
	t.Helper()
	docs := g.Observations("")
	if len(docs) != 1 {
		t.Fatalf("observation docs = %d, want 1", len(docs))
	}
	return docs[0]
}

// globalRows counts the raw _cpu0 rows an observation left in the
// global time-series store.
func globalRows(t *testing.T, g *SuperDB, host, tag string) int {
	t.Helper()
	res, err := g.TS.QueryString(fmt.Sprintf(`SELECT "_cpu0" FROM "perfevent_hwcounters_X" WHERE tag=%q AND host=%q`, tag, host))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// reportCase is one observation report held to the same assertions on
// every backend.
type reportCase struct {
	name   string
	mode   ReportMode
	fields []string
	rows   int // raw rows shipped, and the doc's "points"
	kind   ontology.EntryKind
	aggs   []Aggregates
}

var namedFields = []string{"_cpu0", "_cpu1"}

// TestReportObservationTS ships the raw series, by field names and by
// select-all ["*"].
func TestReportObservationTS(t *testing.T) {
	runReportCases(t, []reportCase{
		{"ts", ModeTS, namedFields, 10, ontology.EntryTSObservation, nil},
		{"ts-star", ModeTS, []string{"*"}, 10, ontology.EntryTSObservation, nil},
	})
}

// TestReportObservationAGG ships engine summaries only, by field names
// and by select-all ["*"].
func TestReportObservationAGG(t *testing.T) {
	// seedObservation writes _cpu0 = 0..9 and _cpu1 = 0,2,..,18.
	wantAggs := []Aggregates{
		{Measurement: "perfevent_hwcounters_X", Field: "_cpu0", Count: 10, Min: 0, Max: 9, Mean: 4.5, P50: 4.5, P99: 8.91},
		{Measurement: "perfevent_hwcounters_X", Field: "_cpu1", Count: 10, Min: 0, Max: 18, Mean: 9, P50: 9, P99: 17.82},
	}
	runReportCases(t, []reportCase{
		{"agg", ModeAGG, namedFields, 0, ontology.EntryAGGObservation, wantAggs},
		{"agg-star", ModeAGG, []string{"*"}, 0, ontology.EntryAGGObservation, wantAggs},
	})
}

// runReportCases reports each case on a fresh instance of every backend
// and checks the raw row count, the doc's kind and "points", the
// aggregates, and that the caller's metric fields are untouched.
func runReportCases(t *testing.T, cases []reportCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, b := range backends(t) {
				t.Run(b.name, func(t *testing.T) {
					local := tsdb.New()
					obs := seedObservation(t, local, "skx", "t-"+c.name)
					obs.Metrics[0].Fields = append([]string(nil), c.fields...)
					if err := b.report(obs, local, c.mode); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(obs.Metrics[0].Fields, c.fields) {
						t.Errorf("report rewrote the metric's fields: %v, want %v", obs.Metrics[0].Fields, c.fields)
					}
					if n := globalRows(t, b.global, "skx", "t-"+c.name); n != c.rows {
						t.Errorf("global rows = %d, want %d", n, c.rows)
					}
					doc := observationDoc(t, b.global)
					if doc["kind"] != string(c.kind) {
						t.Errorf("kind = %v, want %s", doc["kind"], c.kind)
					}
					if p, _ := doc["points"].(float64); int(p) != c.rows {
						t.Errorf("points = %v, want %d", doc["points"], c.rows)
					}
					var got []Aggregates
					if rows, _ := b.global.ExportML(); len(rows) == 1 {
						got = rows[0].Aggs
					}
					if !aggsClose(got, c.aggs) {
						t.Errorf("aggregates = %+v, want %+v", got, c.aggs)
					}
				})
			}
		})
	}
}

// aggsClose compares aggregates exactly except for float rounding in
// the interpolated percentiles.
func aggsClose(got, want []Aggregates) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Measurement != w.Measurement || g.Field != w.Field || g.Count != w.Count ||
			g.Min != w.Min || g.Max != w.Max || g.Mean != w.Mean || g.P50 != w.P50 ||
			math.Abs(g.P99-w.P99) > 1e-9 {
			return false
		}
	}
	return true
}

// TestReportObservationStarMatchesNamed reports one irregular series
// twice, by field names and by ["*"]: the select-all report expands to
// the same names and runs the same engine summary, so the uploaded
// aggregates are bit-identical and the caller's metric is untouched.
func TestReportObservationStarMatchesNamed(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			local := tsdb.New()
			for i := 0; i < 200; i++ {
				x := float64(i)
				if err := local.WritePoint(tsdb.Point{
					Measurement: "perfevent_hwcounters_X",
					Tags:        map[string]string{"tag": "irregular"},
					Fields:      map[string]float64{"_cpu0": 4.5 + 3*math.Sin(x*0.7), "_cpu1": math.Exp(math.Cos(x))},
					Time:        int64(i+1) * 1e9,
				}); err != nil {
					t.Fatal(err)
				}
			}
			report := func(fields ...string) []Aggregates {
				obs := &kb.Observation{
					Tag: "irregular", Host: "skx", Command: "spmv",
					Metrics: []kb.MetricRef{{Measurement: "perfevent_hwcounters_X", Fields: fields}},
				}
				if err := b.report(obs, local, ModeAGG); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(obs.Metrics[0].Fields, fields) {
					t.Errorf("report rewrote the metric's fields: %v, want %v", obs.Metrics[0].Fields, fields)
				}
				rows, err := b.global.ExportML()
				if err != nil || len(rows) != 1 {
					t.Fatalf("ML export: %+v, %v", rows, err)
				}
				return rows[0].Aggs
			}
			named := report("_cpu0", "_cpu1")
			star := report("*")
			if len(named) != 2 {
				t.Fatalf("named aggregates: %+v", named)
			}
			if !reflect.DeepEqual(star, named) {
				t.Errorf("star aggregates differ from named:\n star  %+v\n named %+v", star, named)
			}
		})
	}
}

// TestReportObservationBadMode rejects an unknown mode before any work
// on both backends: no raw row ships and no document is stored, with
// or without metrics to fetch.
func TestReportObservationBadMode(t *testing.T) {
	for _, withMetrics := range []bool{true, false} {
		for _, b := range backends(t) {
			t.Run(fmt.Sprintf("%s/metrics=%v", b.name, withMetrics), func(t *testing.T) {
				local := tsdb.New()
				obs := seedObservation(t, local, "h", "t")
				if !withMetrics {
					obs.Metrics = nil
				}
				if err := b.report(obs, local, ReportMode("raw")); err == nil {
					t.Error("unknown mode accepted")
				}
				if docs := b.global.Observations(""); len(docs) != 0 {
					t.Errorf("rejected report stored %d docs", len(docs))
				}
				if n := globalRows(t, b.global, "h", "t"); n != 0 {
					t.Errorf("rejected report shipped %d rows", n)
				}
			})
		}
	}
}

func TestTSObservationsExcludedFromML(t *testing.T) {
	s := New()
	local := tsdb.New()
	if err := s.ReportObservation(seedObservation(t, local, "h", "t1"), local, ModeTS); err != nil {
		t.Fatal(err)
	}
	rows, err := s.ExportML()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Error("TS observations should not appear in the ML export")
	}
}

func TestMultiInstanceGlobalView(t *testing.T) {
	// Two instances report; the global store can answer cross-machine
	// queries — the SUPERDB promise of §III-E.
	s := New()
	for _, host := range []string{"skx", "icl"} {
		k := testKB(t, host)
		if err := s.ReportKB(k); err != nil {
			t.Fatal(err)
		}
		local := tsdb.New()
		obs := seedObservation(t, local, host, "tag-"+host)
		if err := s.ReportObservation(obs, local, ModeAGG); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Observations("")); n != 2 {
		t.Errorf("global observations = %d", n)
	}
	rows, _ := s.ExportML()
	if len(rows) != 2 {
		t.Errorf("ML rows = %d", len(rows))
	}
}
