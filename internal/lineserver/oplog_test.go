package lineserver_test

import (
	"context"
	"testing"
	"time"

	"pmove/internal/docdb"
	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
	"pmove/internal/resilience"
	"pmove/internal/tsdb"
)

// wireServer is the surface both protocol servers share through the base.
type wireServer interface {
	SetTracing(*introspect.Introspector)
	SetLogger(*logbuf.Logger, time.Duration)
	Listen(string) (string, error)
	Close() error
}

// wireClient drives one protocol's resilient client: ok is an op the
// server accepts, fail one it rejects.
type wireClient struct {
	tr             *resilience.Transport
	ok, fail, ping func(context.Context) error
	close          func() error
}

func dialTSDB(t *testing.T, addr string) wireClient {
	c, err := tsdb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pts := []tsdb.Point{
		{Measurement: "m", Tags: map[string]string{"host": "a"}, Fields: map[string]float64{"v": 1}, Time: 1},
		{Measurement: "m", Tags: map[string]string{"host": "a"}, Fields: map[string]float64{"v": 2}, Time: 2},
	}
	return wireClient{
		tr:    c.Transport(),
		ok:    func(ctx context.Context) error { return c.WriteBatchContext(ctx, pts) },
		fail:  func(ctx context.Context) error { _, err := c.QueryContext(ctx, "SELECT"); return err },
		ping:  c.PingContext,
		close: c.Close,
	}
}

func dialDocdb(t *testing.T, addr string) wireClient {
	c, err := docdb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return wireClient{
		tr: c.Transport(),
		ok: func(ctx context.Context) error {
			_, err := c.InsertContext(ctx, "jobs", docdb.Doc{"name": "a"})
			return err
		},
		fail:  func(ctx context.Context) error { _, err := c.GetContext(ctx, "jobs", "missing"); return err },
		ping:  c.PingContext,
		close: c.Close,
	}
}

func field(rec logbuf.Record, key string) string {
	for _, f := range rec.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// TestServerOpLog drives both protocol servers over a real socket and
// checks the one record shape the base emits (cmd, duration and, when
// tagged, traceparent): a slow op's record carries the client's 128-bit
// TraceID and the literal wire tag of the transport attempt that carried
// it, a failed op logs at error, and ping never logs.
func TestServerOpLog(t *testing.T) {
	cases := []struct {
		name           string
		server         func() wireServer
		dial           func(*testing.T, string) wireClient
		okCmd, failCmd string
	}{
		{"tsdb", func() wireServer { return tsdb.NewServer(tsdb.New()) }, dialTSDB, "writeb", "query"},
		{"docdb", func() wireServer { return docdb.NewServer(docdb.New()) }, dialDocdb, "insert", "get"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.server()
			srv.SetTracing(introspect.New(introspect.WithProcess(tc.name)))
			logs := logbuf.New(64)
			component := tc.name + ".server"
			// Threshold zero: every op is "slow", so the test never
			// depends on real latency.
			srv.SetLogger(logs.With(component), 0)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c := tc.dial(t, addr)
			defer c.close()
			clientIn := introspect.New(introspect.WithProcess("client"))
			c.tr.SetIntrospection(clientIn, tc.name)

			// traced runs op under its own client span and returns the
			// span's trace with the server records logged for it.
			traced := func(name string, op func(context.Context) error) (introspect.TraceID, []logbuf.Record, error) {
				ctx, span := clientIn.StartSpan(context.Background(), name)
				sc, ok := introspect.SpanContextFromContext(ctx)
				if !ok || sc.Trace.IsZero() {
					t.Fatalf("%s: client span context missing", name)
				}
				err := op(ctx)
				span.End(err)
				return sc.Trace, logs.Filter(logbuf.Query{Trace: sc.Trace}), err
			}

			t.Run("slow op joins client trace", func(t *testing.T) {
				trace, recs, err := traced("tick", c.ok)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) != 1 {
					t.Fatalf("got %d records for the client trace, want 1: %+v", len(recs), logs.Records())
				}
				rec := recs[0]
				if rec.Msg != "slow op" || rec.Level != logbuf.Warn || rec.Component != component {
					t.Fatalf("record = %+v, want %s slow-op warn", rec, component)
				}
				if rec.Trace != trace {
					t.Fatalf("record trace %s != client trace %s", rec.Trace, trace)
				}
				if got := field(rec, "cmd"); got != tc.okCmd {
					t.Fatalf("cmd = %q, want %q", got, tc.okCmd)
				}
				if field(rec, "duration") == "" {
					t.Fatalf("record lacks duration: %+v", rec.Fields)
				}
				// The traceparent is the literal wire tag: canonical, in
				// the client's trace, parented on a client-side span (the
				// transport attempt that carried the frame).
				tp := field(rec, "traceparent")
				wire, ok := introspect.ParseTraceparent(tp)
				if !ok || wire.Trace != trace || introspect.FormatTraceparent(wire) != tp {
					t.Fatalf("traceparent %q is not a wire tag in client trace %s", tp, trace)
				}
				parented := false
				for _, s := range clientIn.Tracer().Spans() {
					parented = parented || s.ID == wire.Span
				}
				if !parented {
					t.Fatalf("traceparent %q names no client span", tp)
				}
			})

			t.Run("failed op logs at error", func(t *testing.T) {
				_, recs, err := traced("bad", c.fail)
				if err == nil {
					t.Fatal("server accepted the failing op")
				}
				if len(recs) != 1 {
					t.Fatalf("got %d records, want 1: %+v", len(recs), logs.Records())
				}
				rec := recs[0]
				if rec.Msg != "op failed" || rec.Level != logbuf.Error {
					t.Fatalf("record = %+v, want op-failed error", rec)
				}
				if got := field(rec, "cmd"); got != tc.failCmd {
					t.Fatalf("cmd = %q, want %q", got, tc.failCmd)
				}
				if field(rec, "error") == "" || field(rec, "duration") == "" {
					t.Fatalf("record lacks error/duration: %+v", rec.Fields)
				}
			})

			t.Run("ping never logs", func(t *testing.T) {
				if _, recs, err := traced("ping", c.ping); err != nil || len(recs) != 0 {
					t.Fatalf("ping: err=%v records=%+v", err, recs)
				}
				// Nor does the untraced resync ping every fresh connection runs.
				for _, rec := range logs.Records() {
					if field(rec, "cmd") == "ping" {
						t.Fatalf("ping logged: %+v", rec)
					}
				}
			})
		})
	}
}
