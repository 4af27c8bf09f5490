package superdb

import (
	"context"
	"fmt"

	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/kb"
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

// ReportJobContext uploads one completed job's metadata document (built
// with docdb.FromValue; must carry an "_id") into the jobs collection —
// the cluster KB's "historical job metadata" reaching the global store.
func (r *Remote) ReportJobContext(ctx context.Context, doc docdb.Doc) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.report_job")
	defer func() { span.End(err) }()
	return r.upsert(ctx, CollJobs, doc)
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

// upsert replaces one document in a remote collection; with
// WriteBatchContext it makes Remote the reporter's wire store.
func (r *Remote) upsert(ctx context.Context, coll string, doc docdb.Doc) error {
	_, err := r.Docs.UpsertContext(ctx, coll, doc)
	return err
}

// ReportKBContext uploads a system's KB summary, replacing any prior
// upload for the same host.
func (r *Remote) ReportKBContext(ctx context.Context, k *kb.KB) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.report_kb")
	defer func() { span.End(err) }()
	return reportKB(ctx, r, k)
}

// WriteBatchContext ships a batch of points to the global time-series
// store in one round-trip (tsdb WRITEB semantics: validated up front,
// idempotent under retry). Remote thereby satisfies tsdb.BatchWriter,
// the unified batched write surface.
func (r *Remote) WriteBatchContext(ctx context.Context, ps []tsdb.Point) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.write_batch")
	defer func() { span.End(err) }()
	return r.TS.WriteBatchContext(ctx, ps)
}

// ReportObservationContext uploads one observation over the wire, with
// the same TS/AGG split as the embedded SuperDB. Cancelling ctx aborts
// between (and inside) batch uploads.
func (r *Remote) ReportObservationContext(ctx context.Context, o *kb.Observation, local *tsdb.DB, mode ReportMode) (err error) {
	ctx, span := r.in.StartSpan(ctx, "superdb.report_observation")
	defer func() { span.End(err) }()
	return reportObservation(ctx, r, o, local, mode)
}

// HostsContext lists systems with uploaded KBs on the remote instance.
func (r *Remote) HostsContext(ctx context.Context) ([]string, error) {
	docs, err := r.Docs.FindContext(ctx, CollKBs, nil)
	if err != nil {
		return nil, err
	}
	return hostsOf(docs), nil
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
