// Package lineserver is the connection skeleton under the tsdb and docdb
// wire servers: one request per line over TCP. It owns the listener and
// accept loop, the connection registry with one goroutine per
// connection, drain-on-close, the reply to an over-long line, and the
// instrument bundle (tracer, log ring, slow-op threshold). A protocol
// supplies a per-line Handler and an error-reply renderer. See DESIGN.md
// "Wire-server base".
package lineserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// Handler serves one request line. It writes its reply to c.W, which the
// base flushes after it returns, and reports whether the connection stays
// open: false hangs up after the flush (a framing error the protocol
// cannot resynchronise from). line is only valid until the handler
// returns or calls c.Next.
type Handler func(c *Conn, line []byte) bool

// instruments is the bundle a server is observed through, swapped as a
// unit under Server.mu and snapshotted once per request line.
type instruments struct {
	in   *introspect.Introspector
	log  *logbuf.Logger
	slow time.Duration
}

// Conn is one connection as its Handler sees it.
type Conn struct {
	// W buffers the replies; the base flushes it after every request.
	W *bufio.Writer
	// Arrival is when the current request line was read (Unix nanos).
	Arrival int64

	sc *bufio.Scanner
	instruments
}

// Next reads one more line of a multi-line frame through the same
// scanner (and cap) as request lines. ok is false once the connection
// fails or ends. The bytes are only valid until the next read.
func (c *Conn) Next() (line []byte, ok bool) {
	if !c.sc.Scan() {
		return nil, false
	}
	return c.sc.Bytes(), true
}

// Tracer returns the introspector the current request traces into (nil
// when tracing is off; its span methods are nil-safe).
func (c *Conn) Tracer() *introspect.Introspector { return c.in }

// LogOp emits the request's structured record: a failed op always logs
// at error; a successful one logs a "slow op" warning once it took the
// slow threshold or longer, carrying the wire traceparent. sctx carries
// the server span (the record's trace identity); wire is the frame
// context whose span context came off the wire. Ping never logs.
func (c *Conn) LogOp(sctx, wire context.Context, cmd string, err error) {
	if c.log == nil || cmd == "ping" {
		return
	}
	elapsed := time.Duration(time.Now().UnixNano() - c.Arrival)
	if err != nil {
		c.log.Error(sctx, "op failed", "cmd", cmd, "duration", elapsed.String(), "error", err.Error())
		return
	}
	if c.slow < 0 || elapsed < c.slow {
		return
	}
	kv := []string{"cmd", cmd, "duration", elapsed.String()}
	if tp := introspect.TraceparentFromContext(wire); tp != "" {
		kv = append(kv, "traceparent", tp)
	}
	c.log.Warn(sctx, "slow op", kv...)
}

// Server is the shared line-server skeleton; build it with New.
type Server struct {
	name     string
	maxLine  int
	handle   Handler
	replyErr func(w *bufio.Writer, msg string)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	inst   instruments
	wg     sync.WaitGroup
}

// New builds a server that reads request lines of up to maxLine bytes
// and hands each to handle. replyErr renders a protocol error reply; the
// base uses it to answer a line over the cap before hanging up. name
// prefixes listen errors.
func New(name string, maxLine int, handle Handler, replyErr func(w *bufio.Writer, msg string)) *Server {
	return &Server{name: name, maxLine: maxLine, handle: handle, replyErr: replyErr, conns: map[net.Conn]struct{}{}}
}

// SetTracing attaches an introspector whose tracer records the
// server-side spans. Requests carrying a traceparent join the caller's
// distributed trace; untagged ones open local root spans. Nil (the
// default) disables server tracing.
func (s *Server) SetTracing(in *introspect.Introspector) {
	s.mu.Lock()
	s.inst.in = in
	s.mu.Unlock()
}

// SetLogger attaches a structured log ring (conventionally a
// "<protocol>.server" component child) for Conn.LogOp. A zero
// slowThreshold logs every op, a negative one only failed ops; a nil
// logger disables op logging.
func (s *Server) SetLogger(lg *logbuf.Logger, slowThreshold time.Duration) {
	s.mu.Lock()
	s.inst.log = lg
	s.inst.slow = slowThreshold
	s.mu.Unlock()
}

// Listen starts serving on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.name, err)
	}
	s.serve(ln)
	return ln.Addr().String(), nil
}

// serve starts the accept loop on ln. A closed server may serve again.
func (s *Server) serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.closed = false
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			// Accept raced Close, which has already torn down every
			// registered connection: refuse this one rather than leave a
			// handler blocked in Scan under Close's drain.
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), s.maxLine)
	c := &Conn{W: bufio.NewWriter(conn), sc: sc}
	for sc.Scan() {
		c.Arrival = time.Now().UnixNano()
		s.mu.Lock()
		c.instruments = s.inst
		s.mu.Unlock()
		keep := s.handle(c, sc.Bytes())
		if err := c.W.Flush(); err != nil || !keep {
			return
		}
	}
	// A scanner error (most commonly a line over the cap) is answered
	// before the hang-up, so the client sees a protocol error instead of
	// a bare EOF.
	if err := sc.Err(); err != nil {
		msg := err.Error()
		if errors.Is(err, bufio.ErrTooLong) {
			msg = "line too long"
		}
		s.replyErr(c.W, msg)
		c.W.Flush()
	}
}

// Close stops the server: the listener and every connection are torn
// down, and every in-flight handler drains before Close returns, so a
// request that was being served has finished its effects. A connection
// accepted while Close runs is closed unserved.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
