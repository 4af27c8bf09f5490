package docdb

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"pmove/internal/introspect"
	"pmove/internal/lineserver"
	"pmove/internal/resilience"
)

// request is the wire format of the Server protocol: one JSON object per
// line. Traceparent is the optional distributed-trace context tag —
// omitted by pre-tracing clients, ignored by pre-tracing servers (both
// directions stay backward compatible).
type request struct {
	Op          string  `json:"op"` // insert | insertb | find | get | delete | count | collections
	Collection  string  `json:"collection,omitempty"`
	Doc         Doc     `json:"doc,omitempty"`
	Docs        []Doc   `json:"docs,omitempty"` // insertb batch body
	Filter      *Filter `json:"filter,omitempty"`
	ID          string  `json:"id,omitempty"`
	Traceparent string  `json:"traceparent,omitempty"`
}

type response struct {
	OK    bool     `json:"ok"`
	Error string   `json:"error,omitempty"`
	ID    string   `json:"id,omitempty"`
	IDs   []string `json:"ids,omitempty"` // insertb assigned ids, batch order
	Docs  []Doc    `json:"docs,omitempty"`
	Count int      `json:"count,omitempty"`
	Names []string `json:"names,omitempty"`
}

// maxLineBytes caps one request line.
const maxLineBytes = 16 << 20

// Server exposes a DB over TCP, one JSON request/response per line.
// Connections, Close's drain, the over-long-line reply and the
// SetTracing/SetLogger bundle come from the shared line-server base
// (DESIGN.md "Wire-server base"); Close then syncs the DB. Server spans
// are docdb.server.<op> with parse/queue/exec children.
type Server struct {
	*lineserver.Server
	db *DB
}

// NewServer wraps a DB.
func NewServer(db *DB) *Server {
	s := &Server{db: db}
	s.Server = lineserver.New("docdb", maxLineBytes, s.serveLine, replyErr)
	return s
}

// Close stops serving (every in-flight handler drains, so an accepted
// mutation has finished) and then syncs the DB, so a graceful shutdown
// never loses an acknowledged op, whatever the fsync policy.
func (s *Server) Close() error {
	s.Server.Close()
	return s.db.Sync()
}

func replyErr(w *bufio.Writer, msg string) { json.NewEncoder(w).Encode(response{Error: msg}) }

func (s *Server) serveLine(c *lineserver.Conn, line []byte) bool {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		replyErr(c.W, err.Error())
		return true
	}
	// The trace context rides inside the JSON just decoded, so the op and
	// parse spans are backdated to frame arrival — decode time is inside
	// the trace even though the tag is read after it.
	ctx := context.Background()
	if remote, ok := introspect.ParseTraceparent(req.Traceparent); ok {
		ctx = introspect.ContextWithSpanContext(ctx, remote)
	}
	in := c.Tracer()
	name := strings.ToLower(req.Op)
	octx, op := in.StartSpanAt(ctx, "docdb.server."+name, c.Arrival)
	_, ps := in.StartSpanAt(octx, "docdb.server.parse", c.Arrival)
	ps.End(nil)
	_, qs := in.StartSpan(octx, "docdb.server.queue")
	qs.End(nil)
	_, is := in.StartSpan(octx, "docdb.server.exec")
	resp := s.dispatch(&req)
	var err error
	if resp.Error != "" {
		err = errors.New(resp.Error)
	}
	is.End(err)
	op.End(err)
	c.LogOp(octx, ctx, name, err)
	// A response that cannot be encoded hangs up rather than leave the
	// client waiting for a reply that never comes.
	return json.NewEncoder(c.W).Encode(resp) == nil
}

func (s *Server) dispatch(req *request) response {
	col := func() *Collection { return s.db.Collection(req.Collection) }
	switch strings.ToLower(req.Op) {
	case "insert":
		id, err := col().Insert(req.Doc)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, ID: id}
	case "insertb":
		// Batched insert: one frame, one response, ids in batch order.
		// Unlike tsdb's group commit this is per-doc under the hood (each
		// doc WAL-logged as its own op), so a mid-batch rejection leaves
		// the applied prefix — the response reports how far it got and
		// the op is at-least-once, not atomic, under retry.
		ids := make([]string, 0, len(req.Docs))
		for i, d := range req.Docs {
			id, err := col().Insert(d)
			if err != nil {
				return response{IDs: ids, Error: fmt.Sprintf("batch doc %d (%d applied): %v", i, len(ids), err)}
			}
			ids = append(ids, id)
		}
		return response{OK: true, IDs: ids}
	case "upsert":
		id, err := col().Upsert(req.Doc)
		if err != nil {
			return response{Error: err.Error()}
		}
		return response{OK: true, ID: id}
	case "find":
		return response{OK: true, Docs: col().Find(req.Filter)}
	case "get":
		d, ok := col().Get(req.ID)
		if !ok {
			return response{Error: fmt.Sprintf("no document %q", req.ID)}
		}
		return response{OK: true, Docs: []Doc{d}}
	case "delete":
		return response{OK: true, Count: col().Delete(req.Filter)}
	case "count":
		return response{OK: true, Count: col().Count(req.Filter)}
	case "collections":
		return response{OK: true, Names: s.db.Collections()}
	case "ping":
		// Liveness probe used by the resilient client's circuit breaker.
		return response{OK: true}
	}
	return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
}

// Client talks to a Server through the shared resilient transport:
// per-op deadlines, retried reconnects with backoff, and a circuit
// breaker probed via the ping op. See tsdb.Client for the semantics —
// server-side rejections are never retried, I/O failures drop the wire so
// a half-read response cannot desynchronise later calls.
type Client struct {
	tr *resilience.Transport
}

// pingResync verifies a fresh connection answers a ping in sync.
func pingResync(w *resilience.Wire) error {
	if _, err := fmt.Fprintln(w.Conn, `{"op":"ping"}`); err != nil {
		return err
	}
	line, err := w.R.ReadBytes('\n')
	if err != nil {
		return err
	}
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		return fmt.Errorf("docdb: bad ping response: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("docdb: ping rejected: %s", resp.Error)
	}
	return nil
}

// Dial connects to a Server with the default resilience policy; the
// initial connect is a single attempt so a bad address fails fast.
func Dial(addr string) (*Client, error) {
	return DialPolicy(addr, resilience.DefaultPolicy())
}

// DialPolicy connects with an explicit resilience policy.
func DialPolicy(addr string, pol resilience.Policy) (*Client, error) {
	c := &Client{tr: resilience.NewTransport(addr, pol, pingResync)}
	if err := c.tr.Connect(); err != nil {
		c.tr.Close()
		return nil, fmt.Errorf("docdb: dial %s: %w", addr, err)
	}
	return c, nil
}

// Stats exposes the transport's fault counters.
func (c *Client) Stats() resilience.TransportStats { return c.tr.Stats() }

// Transport exposes the underlying resilient transport for
// self-observability wiring (Transport.SetIntrospection).
func (c *Client) Transport() *resilience.Transport { return c.tr }

// Ping checks liveness end to end with a background context.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext checks liveness end to end.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := c.roundTrip(ctx, request{Op: "ping"})
	return err
}

func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	var resp response
	err := c.tr.DoContext(ctx, func(ctx context.Context, w *resilience.Wire) error {
		// Marshalled per attempt: the traceparent names the attempt span,
		// so a retried request parents its server spans under the retry
		// that actually carried it.
		req.Traceparent = introspect.TraceparentFromContext(ctx)
		b, err := json.Marshal(req)
		if err != nil {
			return resilience.Permanent(err)
		}
		if _, err := fmt.Fprintf(w.Conn, "%s\n", b); err != nil {
			return err
		}
		line, err := w.R.ReadBytes('\n')
		if err != nil {
			return err
		}
		resp = response{}
		if err := json.Unmarshal(line, &resp); err != nil {
			// Full line read — in sync; malformed bodies do not retry.
			return resilience.Permanent(fmt.Errorf("docdb: bad response: %w", err))
		}
		if resp.Error != "" {
			return resilience.Permanent(fmt.Errorf("docdb: %s", resp.Error))
		}
		return nil
	})
	return resp, err
}

// Insert stores a document remotely and returns its id.
func (c *Client) Insert(collection string, d Doc) (string, error) {
	return c.InsertContext(context.Background(), collection, d)
}

// InsertContext stores a document remotely and returns its id.
func (c *Client) InsertContext(ctx context.Context, collection string, d Doc) (string, error) {
	resp, err := c.roundTrip(ctx, request{Op: "insert", Collection: collection, Doc: d})
	return resp.ID, err
}

// InsertBatchContext stores a batch of documents in ONE round-trip and
// returns their assigned ids in batch order. The op is at-least-once
// and non-atomic: a rejection mid-batch leaves the applied prefix
// (reported via the returned ids), and a retry after a lost ack may
// re-insert — callers needing exactly-once should write through the
// tsdb batch path or upsert by stable _id.
func (c *Client) InsertBatchContext(ctx context.Context, collection string, docs []Doc) ([]string, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	resp, err := c.roundTrip(ctx, request{Op: "insertb", Collection: collection, Docs: docs})
	return resp.IDs, err
}

// Upsert inserts or replaces a document remotely by its _id.
func (c *Client) Upsert(collection string, d Doc) (string, error) {
	return c.UpsertContext(context.Background(), collection, d)
}

// UpsertContext inserts or replaces a document remotely by its _id.
func (c *Client) UpsertContext(ctx context.Context, collection string, d Doc) (string, error) {
	resp, err := c.roundTrip(ctx, request{Op: "upsert", Collection: collection, Doc: d})
	return resp.ID, err
}

// Find queries a collection remotely.
func (c *Client) Find(collection string, f *Filter) ([]Doc, error) {
	return c.FindContext(context.Background(), collection, f)
}

// FindContext queries a collection remotely.
func (c *Client) FindContext(ctx context.Context, collection string, f *Filter) ([]Doc, error) {
	resp, err := c.roundTrip(ctx, request{Op: "find", Collection: collection, Filter: f})
	return resp.Docs, err
}

// Get fetches one document by id.
func (c *Client) Get(collection, id string) (Doc, error) {
	return c.GetContext(context.Background(), collection, id)
}

// GetContext fetches one document by id.
func (c *Client) GetContext(ctx context.Context, collection, id string) (Doc, error) {
	resp, err := c.roundTrip(ctx, request{Op: "get", Collection: collection, ID: id})
	if err != nil {
		return nil, err
	}
	if len(resp.Docs) == 0 {
		return nil, fmt.Errorf("docdb: no document %q", id)
	}
	return resp.Docs[0], nil
}

// Count counts matching documents.
func (c *Client) Count(collection string, f *Filter) (int, error) {
	return c.CountContext(context.Background(), collection, f)
}

// CountContext counts matching documents.
func (c *Client) CountContext(ctx context.Context, collection string, f *Filter) (int, error) {
	resp, err := c.roundTrip(ctx, request{Op: "count", Collection: collection, Filter: f})
	return resp.Count, err
}

// Close closes the connection.
func (c *Client) Close() error { return c.tr.Close() }
