// Package superdb implements P-MoVE's global performance database
// (§III-E): a long-term store accumulating Knowledge Bases and performance
// telemetry "from a wide array of systems to enhance architectural
// research and train robust machine learning models". Observations evolve
// into two variants here: TSObservationInterface carries the raw
// time-series rows; AGGObservationInterface statistically summarises them
// (min, max, mean, percentiles) to manage high data volumes.
package superdb

import (
	"context"
	"fmt"
	"sort"

	"pmove/internal/docdb"
	"pmove/internal/kb"
	"pmove/internal/ontology"
	"pmove/internal/tsdb"
)

// Collection names in the global document store.
const (
	CollKBs          = "super_kbs"
	CollObservations = "super_observations"
	CollJobs         = "super_jobs"
)

// SuperDB is the global instance: in the paper cloud-hosted MongoDB and
// InfluxDB; here embeddable (and servable through the docdb/tsdb TCP
// servers).
type SuperDB struct {
	Docs *docdb.DB
	TS   *tsdb.DB
}

// New creates an empty global database.
func New() *SuperDB {
	return &SuperDB{Docs: docdb.New(), TS: tsdb.New()}
}

// Aggregates summarises one field of one measurement.
type Aggregates struct {
	Measurement string  `json:"measurement"`
	Field       string  `json:"field"`
	Count       int     `json:"count"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	Mean        float64 `json:"mean"`
	P50         float64 `json:"p50"`
	P99         float64 `json:"p99"`
}

// hasStar reports whether a field list selects all fields — the one
// shape the aggregate engine cannot plan, since it needs field names.
func hasStar(fields []string) bool {
	for _, f := range fields {
		if f == "*" {
			return true
		}
	}
	return false
}

// dedupeSorted returns the distinct field names, sorted — the order
// reported aggregates are listed in.
func dedupeSorted(fields []string) []string {
	seen := map[string]struct{}{}
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if _, ok := seen[f]; ok {
			continue
		}
		seen[f] = struct{}{}
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// summaryQuery builds the one-shot aggregate query computing every
// Aggregates column (count/min/max/mean/p50/p99 per field) on the
// engine, so no raw row crosses to the reporter.
func summaryQuery(measurement string, tags map[string]string, fields []string) *tsdb.Query {
	var aggs []tsdb.Aggregate
	for _, f := range dedupeSorted(fields) {
		aggs = append(aggs,
			tsdb.Aggregate{Fn: "count", Field: f},
			tsdb.Aggregate{Fn: "min", Field: f},
			tsdb.Aggregate{Fn: "max", Field: f},
			tsdb.Aggregate{Fn: "mean", Field: f},
			tsdb.Aggregate{Fn: "p", Field: f, Pct: 50},
			tsdb.Aggregate{Fn: "p", Field: f, Pct: 99},
		)
	}
	return &tsdb.Query{Aggregates: aggs, Measurement: measurement, TagFilter: tags}
}

// summaryFromResult maps the aggregate query's single row back into
// Aggregates values, skipping fields with no samples.
func summaryFromResult(measurement string, fields []string, res *tsdb.Result) []Aggregates {
	if res == nil || len(res.Rows) == 0 {
		return nil
	}
	row := res.Rows[0]
	var out []Aggregates
	for _, f := range dedupeSorted(fields) {
		col := func(fn string, pct float64) float64 {
			return row.Values[tsdb.Aggregate{Fn: fn, Field: f, Pct: pct}.Column()]
		}
		cnt := col("count", 0)
		if cnt == 0 {
			continue
		}
		out = append(out, Aggregates{
			Measurement: measurement,
			Field:       f,
			Count:       int(cnt),
			Min:         col("min", 0),
			Max:         col("max", 0),
			Mean:        col("mean", 0),
			P50:         col("p", 50),
			P99:         col("p", 99),
		})
	}
	return out
}

// store is the write surface the reporter needs from a global
// instance: a document upsert and a batched time-series write. The
// embedded SuperDB provides it through localStore and the wire Remote
// directly, so both report through one code path.
type store interface {
	upsert(ctx context.Context, coll string, doc docdb.Doc) error
	tsdb.BatchWriter
}

// localStore adapts the embedded databases to store.
type localStore struct {
	docs *docdb.DB
	*tsdb.DB
}

func (l localStore) upsert(_ context.Context, coll string, doc docdb.Doc) error {
	_, err := l.docs.Collection(coll).Upsert(doc)
	return err
}

// reportKB uploads a system's KB summary, replacing any prior upload
// for the same host.
func reportKB(ctx context.Context, st store, k *kb.KB) error {
	doc, err := docdb.FromValue(map[string]any{
		"_id":       "kb:" + k.Host,
		"host":      k.Host,
		"nodes":     k.Len(),
		"microarch": k.Probe.System.CPU.Microarch,
		"vendor":    string(k.Probe.System.CPU.Vendor),
		"threads":   k.Probe.System.NumThreads(),
	})
	if err != nil {
		return err
	}
	if err := st.upsert(ctx, CollKBs, doc); err != nil {
		return fmt.Errorf("superdb: report KB for %s: %w", k.Host, err)
	}
	return nil
}

// ReportKB uploads a system's knowledge base to the global store ("The
// users have the option to report their performance telemetry readings and
// the system's KB to SUPERDB").
func (s *SuperDB) ReportKB(k *kb.KB) error {
	return reportKB(context.Background(), localStore{s.Docs, s.TS}, k)
}

// ReportMode selects how an observation's telemetry is uploaded.
type ReportMode string

// Report modes.
const (
	ModeTS  ReportMode = "ts"  // raw time-series rows
	ModeAGG ReportMode = "agg" // statistical summary only
)

// reportBatchSize chunks observation uploads: large observations ship
// as a few full batches instead of |rows| writes, while staying
// comfortably under the server's MaxBatchPoints bound.
const reportBatchSize = 256

// reportObservation uploads one observation: its metadata document plus
// either the raw series (ModeTS, shipped in reportBatchSize batches) or
// the engine's summary of it (ModeAGG), pulled from the local
// time-series database. An unknown mode is rejected before any work.
func reportObservation(ctx context.Context, st store, o *kb.Observation, local *tsdb.DB, mode ReportMode) error {
	var kind ontology.EntryKind
	switch mode {
	case ModeTS:
		kind = ontology.EntryTSObservation
	case ModeAGG:
		kind = ontology.EntryAGGObservation
	default:
		return fmt.Errorf("superdb: unknown report mode %q", mode)
	}
	tags := map[string]string{"tag": o.Tag}
	var aggs []Aggregates
	rawPoints := 0
	var pending []tsdb.Point
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := st.WriteBatchContext(ctx, pending); err != nil {
			return err
		}
		rawPoints += len(pending)
		pending = pending[:0]
		return nil
	}
	ptags := map[string]string{"tag": o.Tag, "host": o.Host}
	for _, m := range o.Metrics {
		fields := m.Fields
		var res *tsdb.Result
		if mode == ModeTS || (len(fields) == 1 && fields[0] == "*") {
			// ModeTS ships these rows. A select-all ModeAGG metric only
			// reads their column names: the aggregate grammar needs
			// named fields.
			var err error
			res, err = local.ExecuteContext(ctx, tsdb.QueryRequest{Query: &tsdb.Query{
				Fields:      fields,
				Measurement: m.Measurement,
				TagFilter:   tags,
			}})
			if err != nil {
				return fmt.Errorf("superdb: fetch %s: %w", m.Measurement, err)
			}
			fields = res.Columns
		}
		if mode == ModeAGG {
			// One aggregate query computes the whole summary on the
			// engine instead of materializing raw rows to fold here.
			sq := summaryQuery(m.Measurement, tags, fields)
			res, err := local.ExecuteContext(ctx, tsdb.QueryRequest{Query: sq})
			if err != nil {
				return fmt.Errorf("superdb: aggregate %s: %w", m.Measurement, err)
			}
			aggs = append(aggs, summaryFromResult(m.Measurement, fields, res)...)
			continue
		}
		for _, row := range res.Rows {
			if len(row.Values) == 0 {
				continue
			}
			pending = append(pending, tsdb.Point{
				Measurement: m.Measurement,
				Tags:        ptags,
				Fields:      row.Values,
				Time:        row.Time,
			})
			if len(pending) >= reportBatchSize {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	doc, err := docdb.FromValue(map[string]any{
		"_id":     fmt.Sprintf("obs:%s:%s", o.Host, o.Tag),
		"kind":    string(kind),
		"host":    o.Host,
		"tag":     o.Tag,
		"command": o.Command,
		"metrics": o.Metrics,
		"aggs":    aggs,
		"points":  rawPoints,
	})
	if err != nil {
		return err
	}
	if err := st.upsert(ctx, CollObservations, doc); err != nil {
		return fmt.Errorf("superdb: report observation %s: %w", o.Tag, err)
	}
	return nil
}

// ReportObservation uploads one observation: its metadata document plus
// either the raw series (ModeTS) or aggregates (ModeAGG) pulled from the
// local time-series database.
func (s *SuperDB) ReportObservation(o *kb.Observation, local *tsdb.DB, mode ReportMode) error {
	return reportObservation(context.Background(), localStore{s.Docs, s.TS}, o, local, mode)
}

// hostsOf lists the hosts named by uploaded KB documents, sorted.
func hostsOf(docs []docdb.Doc) []string {
	var out []string
	for _, d := range docs {
		if h, ok := d["host"].(string); ok {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// Hosts lists systems with uploaded KBs, sorted.
func (s *SuperDB) Hosts() []string {
	return hostsOf(s.Docs.Collection(CollKBs).Find(nil))
}

// Observations returns the uploaded observation documents for a host (""
// for all).
func (s *SuperDB) Observations(host string) []docdb.Doc {
	var f *docdb.Filter
	if host != "" {
		f = &docdb.Filter{Eq: map[string]any{"host": host}}
	}
	return s.Docs.Collection(CollObservations).Find(f)
}

// MLRow is one exported training sample: observation metadata joined with
// its aggregates — the "download selected data for ML training" path.
type MLRow struct {
	Host    string       `json:"host"`
	Tag     string       `json:"tag"`
	Command string       `json:"command"`
	Aggs    []Aggregates `json:"aggs"`
}

// ExportML flattens all aggregated observations into training rows.
func (s *SuperDB) ExportML() ([]MLRow, error) {
	var out []MLRow
	for _, d := range s.Observations("") {
		kind, _ := d["kind"].(string)
		if kind != string(ontology.EntryAGGObservation) {
			continue
		}
		row := MLRow{}
		row.Host, _ = d["host"].(string)
		row.Tag, _ = d["tag"].(string)
		row.Command, _ = d["command"].(string)
		if raw, ok := d["aggs"].([]any); ok {
			for _, ra := range raw {
				m, ok := ra.(map[string]any)
				if !ok {
					continue
				}
				ag := Aggregates{}
				ag.Measurement, _ = m["measurement"].(string)
				ag.Field, _ = m["field"].(string)
				if v, ok := m["count"].(float64); ok {
					ag.Count = int(v)
				}
				ag.Min, _ = m["min"].(float64)
				ag.Max, _ = m["max"].(float64)
				ag.Mean, _ = m["mean"].(float64)
				ag.P50, _ = m["p50"].(float64)
				ag.P99, _ = m["p99"].(float64)
				row.Aggs = append(row.Aggs, ag)
			}
		}
		out = append(out, row)
	}
	return out, nil
}
