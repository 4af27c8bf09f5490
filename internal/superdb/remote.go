package superdb

import (
	"context"
	"fmt"
	"sort"

	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/kb"
	"pmove/internal/ontology"
	"pmove/internal/resilience"
	"pmove/internal/tsdb"
)

// Remote is a SUPERDB client over the network: the paper's deployment has
// "cloud instances of MongoDB and InfluxDB"; here the docdb and tsdb TCP
// servers (see cmd/superdb) play those roles. Local P-MoVE instances use
// a Remote to report their KBs and observations.
type Remote struct {
	Docs *docdb.Client
	TS   *tsdb.Client

	// in records client-side superdb.* spans around the compound report
	// and query ops, so a distributed trace shows the superdb hop above
	// the per-transport attempts. Nil-safe.
	in *introspect.Introspector
}

// DialRemote connects to a running cmd/superdb instance with the default
// resilience policy.
func DialRemote(docAddr, tsAddr string) (*Remote, error) {
	return DialRemoteWith(docAddr, tsAddr, resilience.DefaultPolicy())
}

// DialRemoteWith connects with an explicit resilience policy shared by
// both clients — the knob cmd/pmove exposes for chaos runs.
func DialRemoteWith(docAddr, tsAddr string, pol resilience.Policy) (*Remote, error) {
	dc, err := docdb.DialPolicy(docAddr, pol)
	if err != nil {
		return nil, fmt.Errorf("superdb: documents: %w", err)
	}
	tc, err := tsdb.DialPolicy(tsAddr, pol)
	if err != nil {
		dc.Close()
		return nil, fmt.Errorf("superdb: time series: %w", err)
	}
	return &Remote{Docs: dc, TS: tc}, nil
}

// SetIntrospection mirrors both clients' transport fault handling into
// the self-observability registry, under transport.superdb_docs.* and
// transport.superdb_ts.*.
func (r *Remote) SetIntrospection(in *introspect.Introspector) {
	r.in = in
	r.Docs.Transport().SetIntrospection(in, "superdb_docs")
	r.TS.Transport().SetIntrospection(in, "superdb_ts")
}

// SetLogger routes both transports' degradation events (fast-fails,
// breaker opens, retry exhaustion) into a structured log ring, tagged
// per store so `pmove logs -component transport.superdb_ts` isolates
// one leg. Nil-safe.
func (r *Remote) SetLogger(l *logbuf.Logger) {
	r.Docs.Transport().SetLogger(l.With("transport.superdb_docs"))
	r.TS.Transport().SetLogger(l.With("transport.superdb_ts"))
}

// Ping verifies both stores answer end to end with a background context.
func (r *Remote) Ping() error {
	return r.PingContext(context.Background())
}

// PingContext verifies both stores answer end to end.
func (r *Remote) PingContext(ctx context.Context) error {
	if err := r.Docs.PingContext(ctx); err != nil {
		return fmt.Errorf("superdb: documents: %w", err)
	}
	if err := r.TS.PingContext(ctx); err != nil {
		return fmt.Errorf("superdb: time series: %w", err)
	}
	return nil
}

// ReportJob uploads one completed job's metadata document (built with
// docdb.FromValue; must carry an "_id") into the jobs collection — the
// cluster KB's "historical job metadata" reaching the global store.
func (r *Remote) ReportJob(doc docdb.Doc) error {
	return r.ReportJobContext(context.Background(), doc)
}

// ReportJobContext uploads one job metadata document.
func (r *Remote) ReportJobContext(ctx context.Context, doc docdb.Doc) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.report_job")
	defer func() { span.End(err) }()
	_, err = r.Docs.UpsertContext(ctx, CollJobs, doc)
	return err
}

// Close releases both connections.
func (r *Remote) Close() error {
	err1 := r.Docs.Close()
	err2 := r.TS.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// ReportKB uploads a system's KB summary with a background context.
func (r *Remote) ReportKB(k *kb.KB) error {
	return r.ReportKBContext(context.Background(), k)
}

// ReportKBContext uploads a system's KB summary, replacing any prior
// upload for the same host.
func (r *Remote) ReportKBContext(ctx context.Context, k *kb.KB) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.report_kb")
	defer func() { span.End(err) }()
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
	_, err = r.Docs.UpsertContext(ctx, CollKBs, doc)
	return err
}

// reportBatchSize chunks observation uploads: large observations ship
// as a few full frames instead of |rows| round-trips, while staying
// comfortably under the server's MaxBatchPoints bound.
const reportBatchSize = 256

// WriteBatchContext ships a batch of points to the global time-series
// store in one round-trip (tsdb WRITEB semantics: validated up front,
// idempotent under retry). Remote thereby satisfies tsdb.BatchWriter,
// the unified batched write surface.
func (r *Remote) WriteBatchContext(ctx context.Context, ps []tsdb.Point) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.write_batch")
	defer func() { span.End(err) }()
	return r.TS.WriteBatchContext(ctx, ps)
}

// ReportObservation uploads one observation with a background context.
func (r *Remote) ReportObservation(o *kb.Observation, local *tsdb.DB, mode ReportMode) error {
	return r.ReportObservationContext(context.Background(), o, local, mode)
}

// ReportObservationContext uploads one observation over the wire, with
// the same TS/AGG split as the embedded SuperDB. Cancelling ctx aborts
// between (and inside) point uploads.
func (r *Remote) ReportObservationContext(ctx context.Context, o *kb.Observation, local *tsdb.DB, mode ReportMode) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.report_observation")
	defer func() { span.End(err) }()
	kind := ontology.EntryTSObservation
	if mode == ModeAGG {
		kind = ontology.EntryAGGObservation
	}
	var aggs []Aggregates
	rawPoints := 0
	// ModeTS rows accumulate here and ship as chunked batch frames (one
	// round-trip per reportBatchSize rows) instead of one WRITE per row.
	var pending []tsdb.Point
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if err := r.TS.WriteBatchContext(ctx, pending); err != nil {
			return err
		}
		rawPoints += len(pending)
		pending = pending[:0]
		return nil
	}
	for _, m := range o.Metrics {
		if mode == ModeAGG && !hasStar(m.Fields) {
			sq := summaryQuery(m.Measurement, map[string]string{"tag": o.Tag}, m.Fields)
			res, err := local.ExecuteContext(ctx, tsdb.QueryRequest{Query: sq})
			if err != nil {
				return fmt.Errorf("superdb: aggregate %s: %w", m.Measurement, err)
			}
			aggs = append(aggs, summaryFromResult(m.Measurement, m.Fields, res)...)
			continue
		}
		res, err := local.ExecuteContext(ctx, tsdb.QueryRequest{Query: &tsdb.Query{
			Fields:      m.Fields,
			Measurement: m.Measurement,
			TagFilter:   map[string]string{"tag": o.Tag},
		}})
		if err != nil {
			return fmt.Errorf("superdb: fetch %s: %w", m.Measurement, err)
		}
		switch mode {
		case ModeTS:
			for _, row := range res.Rows {
				if len(row.Values) == 0 {
					continue
				}
				pending = append(pending, tsdb.Point{
					Measurement: m.Measurement,
					Tags:        map[string]string{"tag": o.Tag, "host": o.Host},
					Fields:      row.Values,
					Time:        row.Time,
				})
				if len(pending) >= reportBatchSize {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		case ModeAGG:
			byField := map[string][]float64{}
			for _, row := range res.Rows {
				for f, v := range row.Values {
					byField[f] = append(byField[f], v)
				}
			}
			var fields []string
			for f := range byField {
				fields = append(fields, f)
			}
			sort.Strings(fields)
			for _, f := range fields {
				aggs = append(aggs, aggregate(m.Measurement, f, byField[f]))
			}
		default:
			return fmt.Errorf("superdb: unknown report mode %q", mode)
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
	_, err = r.Docs.UpsertContext(ctx, CollObservations, doc)
	return err
}

// Hosts lists systems with uploaded KBs with a background context.
func (r *Remote) Hosts() ([]string, error) {
	return r.HostsContext(context.Background())
}

// HostsContext lists systems with uploaded KBs on the remote instance.
func (r *Remote) HostsContext(ctx context.Context) ([]string, error) {
	docs, err := r.Docs.FindContext(ctx, CollKBs, nil)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, d := range docs {
		if h, ok := d["host"].(string); ok {
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out, nil
}

// QueryObservation recalls one uploaded observation's series with a
// background context.
func (r *Remote) QueryObservation(host, tag, measurement string, fields []string) (*tsdb.Result, error) {
	return r.QueryObservationContext(context.Background(), host, tag, measurement, fields)
}

// QueryObservationContext recalls one uploaded observation's series for a
// measurement, using the same Listing 3 query shape against the global
// time-series store.
func (r *Remote) QueryObservationContext(ctx context.Context, host, tag, measurement string, fields []string) (res *tsdb.Result, err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.query_observation")
	defer func() { span.End(err) }()
	q := &tsdb.Query{
		Fields:      fields,
		Measurement: measurement,
		TagFilter:   map[string]string{"tag": tag, "host": host},
	}
	if len(fields) == 0 {
		q.Fields = []string{"*"}
	}
	return r.TS.QueryContext(ctx, q.String())
}

// AggregateObservationContext summarises one uploaded observation's
// measurement on the server: one aggregate SELECT over the wire
// (count/min/max/mean/p50/p99 per field), executed by the remote
// store's parallel engine, mapped back into Aggregates rows. The
// fields must be named — the aggregate grammar has no '*'.
func (r *Remote) AggregateObservationContext(ctx context.Context, host, tag, measurement string, fields []string) (aggs []Aggregates, err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.aggregate_observation")
	defer func() { span.End(err) }()
	if len(fields) == 0 || hasStar(fields) {
		return nil, fmt.Errorf("superdb: aggregate observation needs named fields")
	}
	q := summaryQuery(measurement, map[string]string{"tag": tag, "host": host}, fields)
	res, err := r.TS.QueryContext(ctx, q.String())
	if err != nil {
		return nil, err
	}
	return summaryFromResult(measurement, fields, res), nil
}
