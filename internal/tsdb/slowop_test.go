package tsdb

import (
	"context"
	"sync"
	"testing"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/introspect/logbuf"
)

// TestSlowOpConcurrentWriters drives many traced client ops against one
// server while a reader drains the ring — the race-detector companion
// to the correlation test (TestServerOpLog in internal/lineserver), and
// a check that concurrent ops never
// cross-contaminate trace identities.
func TestSlowOpConcurrentWriters(t *testing.T) {
	srv := NewServer(New())
	srvIn := introspect.New(introspect.WithProcess("tsdb"))
	srv.SetTracing(srvIn)
	logs := logbuf.New(256)
	srv.SetLogger(logs.With("tsdb.server"), 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 4
	var wg sync.WaitGroup
	traces := make([]introspect.TraceID, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			in := introspect.New(introspect.WithProcess("client"))
			c.Transport().SetIntrospection(in, "tsdb")
			ctx, span := in.StartSpan(context.Background(), "tick")
			sc, _ := introspect.SpanContextFromContext(ctx)
			traces[i] = sc.Trace
			for j := 0; j < 20; j++ {
				p := Point{Measurement: "m", Tags: map[string]string{"host": "h"},
					Fields: map[string]float64{"v": float64(j)}, Time: int64(j + 1)}
				if err := c.WriteContext(ctx, p); err != nil {
					t.Error(err)
					return
				}
			}
			span.End(nil)
		}(i)
	}
	// Concurrent reader: drains snapshots while the writers hammer the
	// ring, so -race exercises writer/reader interleavings.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = logs.Records()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	// Every acknowledged op logged before its ack flushed, so the ring
	// is complete once all clients returned.
	for i, tr := range traces {
		n := len(logs.Filter(logbuf.Query{Trace: tr}))
		if n != 20 {
			t.Fatalf("client %d: %d records for its trace, want 20", i, n)
		}
	}
}
