package tsdb

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"pmove/internal/introspect"
	"pmove/internal/lineserver"
	"pmove/internal/resilience"
)

// MaxBatchPoints bounds one WRITEB frame. The bound keeps a malicious
// or corrupted header from committing the server to drain an unbounded
// body; an over-limit batch is rejected fatally (connection closed)
// because the server will not read its body.
const MaxBatchPoints = 4096

// dedupWindowSize is how many applied batch tokens the server
// remembers for retry dedup (see resilience.DedupWindow).
const dedupWindowSize = 1024

// maxLineBytes caps one request or WRITEB body line.
const maxLineBytes = 8 << 20

// Server exposes a DB over TCP with a line-oriented protocol:
//
//	WRITE <line protocol>     -> "OK" | "ERR <msg>"
//	WRITEB <n> [id=<tok>]     -> (after n body lines) "OK <n>" | "ERR <msg>"
//	QUERY <select statement>  -> one JSON document with the Result | "ERR"
//	PING                      -> "PONG"
//
// WRITEB is the batched write frame: the header line announces n, the
// next n lines are one point of line protocol each, and the server
// answers with ONE ack for the whole batch — a monitoring tick costs
// one round-trip instead of |instance domain|. An optional id= token
// makes the batch idempotent under client retry. The header's bounds
// are load-bearing for stream sync: a header with a valid n (1..
// MaxBatchPoints) ALWAYS consumes exactly n body lines before the ack,
// even when a body line is rejected; an invalid header gets an ERR and
// the connection is closed, because the server cannot know how many
// lines the client will send next. Like WRITE/QUERY, the header may
// carry a leading traceparent= token.
//
// Connections, Close's drain, the over-long-line reply and the
// SetTracing/SetLogger bundle come from the shared line-server base
// (DESIGN.md "Wire-server base"); Close then syncs the DB.
//
// The host runs one of these for the target's telemetry shippers (Figure
// 3: "the host runs ... InfluxDB").
type Server struct {
	*lineserver.Server
	db    *DB
	dedup *resilience.DedupWindow
}

// NewServer wraps a DB.
func NewServer(db *DB) *Server {
	s := &Server{db: db, dedup: resilience.NewDedupWindow(dedupWindowSize)}
	s.Server = lineserver.New("tsdb", maxLineBytes, s.serveLine, replyErr)
	return s
}

// SetTracing attaches the server-side tracer (tsdb.server.write with
// parse/queue/insert children, ...) and wires the served DB's
// query-cache counters into the same self-observability plane
// (pmove.self.query.cache.*). Nil disables both.
func (s *Server) SetTracing(in *introspect.Introspector) {
	s.Server.SetTracing(in)
	s.db.SetIntrospection(in)
}

// Close stops serving (every in-flight handler drains, so an accepted
// WRITE has finished its WAL append) and then syncs the DB once, making
// the whole acknowledged prefix durable under any fsync policy.
func (s *Server) Close() error {
	s.Server.Close()
	return s.db.Sync()
}

func replyErr(w *bufio.Writer, msg string) { fmt.Fprintf(w, "ERR %s\n", msg) }

func (s *Server) serveLine(c *lineserver.Conn, b []byte) bool {
	cmd, rest, _ := strings.Cut(string(b), " ")
	switch strings.ToUpper(cmd) {
	case "PING":
		c.W.WriteString("PONG\n")
	case "WRITE":
		s.handleWrite(c, rest)
	case "WRITEB":
		// On a fatal frame error the server cannot trust how many body
		// lines follow, so it answers (if it can) and hangs up rather
		// than desynchronise the stream. The resilient client re-verifies
		// sync with PING on reconnect.
		return s.handleWriteBatch(c, rest)
	case "QUERY":
		s.handleQuery(c, rest)
	default:
		fmt.Fprintf(c.W, "ERR unknown command %q\n", cmd)
	}
	return true
}

// frameContext strips an optional leading "traceparent=<tp> " token off
// a frame body and returns a context rooted in the sender's span (or a
// plain background context for untagged / malformed tags — malformed
// tags are stripped but never corrupt parentage). Untagged frames from
// pre-traceparent clients are therefore handled exactly as before.
func frameContext(rest string) (context.Context, string) {
	remote, body, tagged := introspect.CutWireField(rest)
	ctx := context.Background()
	if tagged && remote.Valid() {
		ctx = introspect.ContextWithSpanContext(ctx, remote)
	}
	return ctx, body
}

// handleWrite decodes and inserts one WRITE frame, tracing the
// queue/parse/insert phases under a tsdb.server.write span backdated to
// frame arrival so queue time (arrival → processing) is visible.
func (s *Server) handleWrite(c *lineserver.Conn, rest string) {
	ctx, body := frameContext(rest)
	in := c.Tracer()
	wctx, op := in.StartSpanAt(ctx, "tsdb.server.write", c.Arrival)
	_, qs := in.StartSpanAt(wctx, "tsdb.server.queue", c.Arrival)
	qs.End(nil)
	_, ps := in.StartSpan(wctx, "tsdb.server.parse")
	p, err := DecodeLine(body)
	ps.End(err)
	if err == nil {
		_, is := in.StartSpan(wctx, "tsdb.server.insert")
		err = s.db.WritePoint(p)
		is.End(err)
	}
	op.End(err)
	if err != nil {
		replyErr(c.W, err.Error())
	} else {
		c.W.WriteString("OK\n")
	}
	c.LogOp(wctx, ctx, "write", err)
}

// handleWriteBatch serves one WRITEB frame: header → n body lines →
// one ack. Returns false on a fatal frame error (invalid header, or
// the connection dying mid-body) after which the caller must close the
// connection; true means the stream is in sync regardless of whether
// the batch was accepted. The queue/parse/insert phases trace under a
// tsdb.server.writeb span backdated to header arrival.
func (s *Server) handleWriteBatch(c *lineserver.Conn, rest string) bool {
	ctx, body := frameContext(rest)
	in := c.Tracer()
	wctx, op := in.StartSpanAt(ctx, "tsdb.server.writeb", c.Arrival)
	_, qs := in.StartSpanAt(wctx, "tsdb.server.queue", c.Arrival)
	qs.End(nil)

	nStr, opts, _ := strings.Cut(body, " ")
	n, err := strconv.Atoi(nStr)
	if err != nil || n <= 0 || n > MaxBatchPoints {
		err = fmt.Errorf("tsdb: bad batch header %q (want 1..%d points)", body, MaxBatchPoints)
		op.End(err)
		replyErr(c.W, err.Error())
		c.LogOp(wctx, ctx, "writeb", err)
		return false
	}
	var token string
	if v, ok := strings.CutPrefix(strings.TrimSpace(opts), "id="); ok {
		token = v
	}

	// The header is valid: from here the body is ALWAYS drained whole so
	// a rejection leaves the stream in sync.
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		line, ok := c.Next()
		if !ok {
			err = fmt.Errorf("tsdb: connection lost %d/%d lines into batch body", i, n)
			op.End(err)
			c.LogOp(wctx, ctx, "writeb", err)
			return false
		}
		lines = append(lines, string(line))
	}

	_, ps := in.StartSpan(wctx, "tsdb.server.parse")
	points := make([]Point, len(lines))
	for i, line := range lines {
		p, derr := DecodeLine(line)
		if derr != nil {
			err = fmt.Errorf("tsdb: batch point %d: %w", i, derr)
			break
		}
		points[i] = p
	}
	ps.End(err)

	if err == nil && token != "" && s.dedup.Seen(token) {
		// Retry of an applied batch: acknowledge without re-inserting.
		op.End(nil)
		fmt.Fprintf(c.W, "OK %d\n", n)
		return true
	}
	if err == nil {
		_, is := in.StartSpan(wctx, "tsdb.server.insert")
		err = s.db.WriteBatchContext(wctx, points)
		is.End(err)
		if err == nil && token != "" {
			// Record only after the apply succeeded: a failed batch must
			// stay retryable.
			s.dedup.Record(token)
		}
	}
	op.End(err)
	if err != nil {
		replyErr(c.W, err.Error())
	} else {
		fmt.Fprintf(c.W, "OK %d\n", n)
	}
	c.LogOp(wctx, ctx, "writeb", err)
	return true
}

// handleQuery parses and executes one QUERY frame with parse/exec child
// spans under tsdb.server.query.
func (s *Server) handleQuery(c *lineserver.Conn, rest string) {
	ctx, body := frameContext(rest)
	in := c.Tracer()
	qctx, op := in.StartSpanAt(ctx, "tsdb.server.query", c.Arrival)
	_, ps := in.StartSpan(qctx, "tsdb.server.parse")
	q, err := ParseQuery(body)
	ps.End(err)
	var res *Result
	if err == nil {
		var es *introspect.ActiveSpan
		var ectx context.Context
		ectx, es = in.StartSpan(qctx, "tsdb.server.exec")
		res, err = s.db.ExecuteContext(ectx, QueryRequest{Query: q})
		es.End(err)
	}
	op.End(err)
	if err != nil {
		replyErr(c.W, err.Error())
	} else {
		b, merr := json.Marshal(res)
		if merr != nil {
			replyErr(c.W, merr.Error())
			err = merr
		} else {
			c.W.Write(b)
			c.W.WriteByte('\n')
		}
	}
	c.LogOp(qctx, ctx, "query", err)
}

// Client talks to a Server through a resilient transport: per-op
// deadlines, retried reconnects with backoff, and a circuit breaker whose
// half-open probe is the protocol's own PING (which doubles as the
// connection-state resync — a fresh wire is verified in-sync before any
// op uses it, so a half-read response from a previous failure can never
// desynchronise later calls). Protocol rejections ("ERR ...") are fully
// read off the wire and never retried. Writes are at-least-once under
// retry: a WRITE whose response was lost may be re-sent.
type Client struct {
	tr *resilience.Transport
}

// wireTag renders the optional "traceparent=<tp> " frame token for the
// span context in ctx ("" when untraced). Built inside the transport's
// per-attempt closure, so each retry stamps its own attempt span and the
// server subtree parents under the exact attempt that carried it.
func wireTag(ctx context.Context) string {
	tp := introspect.TraceparentFromContext(ctx)
	if tp == "" {
		return ""
	}
	return introspect.WireField + tp + " "
}

// pingResync is the resync/half-open probe run on every fresh connection.
func pingResync(w *resilience.Wire) error {
	if _, err := fmt.Fprintln(w.Conn, "PING"); err != nil {
		return err
	}
	resp, err := w.R.ReadString('\n')
	if err != nil {
		return err
	}
	if strings.TrimSpace(resp) != "PONG" {
		return fmt.Errorf("tsdb: unexpected ping response %q", resp)
	}
	return nil
}

// Dial connects to a Server with the default resilience policy. The
// initial connect is a single attempt so a bad address fails fast.
func Dial(addr string) (*Client, error) {
	return DialPolicy(addr, resilience.DefaultPolicy())
}

// DialPolicy connects with an explicit resilience policy.
func DialPolicy(addr string, pol resilience.Policy) (*Client, error) {
	c := &Client{tr: resilience.NewTransport(addr, pol, pingResync)}
	if err := c.tr.Connect(); err != nil {
		c.tr.Close()
		return nil, fmt.Errorf("tsdb: dial %s: %w", addr, err)
	}
	return c, nil
}

// Stats exposes the transport's fault counters.
func (c *Client) Stats() resilience.TransportStats { return c.tr.Stats() }

// Transport exposes the underlying resilient transport, letting callers
// attach self-observability (Transport.SetIntrospection) without tsdb
// importing the introspect package (which imports tsdb).
func (c *Client) Transport() *resilience.Transport { return c.tr }

// Write ships one point with a background context.
func (c *Client) Write(p Point) error {
	return c.WriteContext(context.Background(), p)
}

// WriteContext ships one point; cancelling ctx aborts mid-retry.
func (c *Client) WriteContext(ctx context.Context, p Point) error {
	line, err := EncodeLine(p)
	if err != nil {
		return err
	}
	return c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		if _, err := fmt.Fprintf(w.Conn, "WRITE %s%s\n", wireTag(ctx), line); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		resp = strings.TrimSpace(resp)
		if resp != "OK" {
			return resilience.Permanent(fmt.Errorf("tsdb: write rejected: %s", resp))
		}
		return nil
	})
}

// WritePoint aliases Write so the client satisfies telemetry.PointSink.
func (c *Client) WritePoint(p Point) error { return c.Write(p) }

// WritePointContext aliases WriteContext so the client satisfies
// telemetry.ContextPointSink: a cancelled session stops burning the
// retry budget on the in-flight point.
func (c *Client) WritePointContext(ctx context.Context, p Point) error {
	return c.WriteContext(ctx, p)
}

// WriteBatchContext ships a whole batch in ONE round-trip (a WRITEB
// frame: header + n body lines + one ack). The batch is encoded — and
// thereby validated — up front; an unencodable point returns a
// *BatchError before anything touches the wire. An idempotency token
// is minted once per call and carried on every retry attempt, so a
// batch whose ack was lost is acknowledged (not re-applied) by the
// server's dedup window: batch writes are exactly-once under retry,
// where single-point WRITEs are only at-least-once. Server-side
// rejections are permanent (fully read, never retried).
func (c *Client) WriteBatchContext(ctx context.Context, ps []Point) error {
	if len(ps) == 0 {
		return nil
	}
	// Validate and encode the body once, up front; each attempt only
	// renders its own header (the trace tag is per attempt) ahead of it.
	bp := getBuf()
	defer putBuf(bp)
	body := *bp
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			return &BatchError{Index: i, Err: err}
		}
		body = appendLine(body, &ps[i])
		body = append(body, '\n')
	}
	*bp = body
	token := resilience.NextOpToken()
	fp := getBuf()
	defer putBuf(fp)
	return c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		// One write for the whole frame: header + body reach the kernel
		// together, so a monitoring tick is one syscall + one RTT.
		frame := append((*fp)[:0], "WRITEB "...)
		frame = append(frame, wireTag(ctx)...)
		frame = strconv.AppendInt(frame, int64(len(ps)), 10)
		frame = append(frame, " id="...)
		frame = append(frame, token...)
		frame = append(frame, '\n')
		frame = append(frame, body...)
		*fp = frame
		if _, err := w.Conn.Write(frame); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		resp = strings.TrimSpace(resp)
		if !strings.HasPrefix(resp, "OK") {
			return resilience.Permanent(fmt.Errorf("tsdb: batch write rejected: %s", resp))
		}
		return nil
	})
}

// Query runs a SELECT statement remotely with a background context.
func (c *Client) Query(stmt string) (*Result, error) {
	return c.QueryContext(context.Background(), stmt)
}

// QueryContext runs a SELECT statement remotely.
func (c *Client) QueryContext(ctx context.Context, stmt string) (*Result, error) {
	var res Result
	err := c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		if _, err := fmt.Fprintf(w.Conn, "QUERY %s%s\n", wireTag(ctx), stmt); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		resp = strings.TrimSpace(resp)
		if strings.HasPrefix(resp, "ERR") {
			return resilience.Permanent(fmt.Errorf("tsdb: query rejected: %s", resp))
		}
		if err := json.Unmarshal([]byte(resp), &res); err != nil {
			// The line was fully read, so the stream is in sync; a
			// malformed body will not get better on retry.
			return resilience.Permanent(fmt.Errorf("tsdb: bad query response: %w", err))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Ping checks liveness with a background context.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext checks liveness.
func (c *Client) PingContext(ctx context.Context) error {
	return c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		if _, err := fmt.Fprintln(w.Conn, "PING"); err != nil {
			return err
		}
		resp, err := w.R.ReadString('\n')
		if err != nil {
			return err
		}
		if strings.TrimSpace(resp) != "PONG" {
			return resilience.Permanent(fmt.Errorf("tsdb: unexpected ping response %q", resp))
		}
		return nil
	})
}

// Close closes the connection.
func (c *Client) Close() error { return c.tr.Close() }
