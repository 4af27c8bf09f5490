package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pmove/internal/introspect"
	"pmove/internal/resilience"
	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// wireStack is one set-up of ingest-wire: an in-memory store behind a
// loopback tsdb.Server and one resilient client per shipper.
type wireStack struct {
	db      *tsdb.DB
	srv     *tsdb.Server
	clients []*tsdb.Client
}

func newWireStack(n int) (*wireStack, error) {
	w := &wireStack{db: tsdb.New()}
	w.srv = tsdb.NewServer(w.db)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		c, err := tsdb.DialPolicy(addr, resilience.DefaultPolicy())
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

func (w *wireStack) close() error {
	for _, c := range w.clients {
		c.Close()
	}
	return w.srv.Close()
}

// runWire is ingest-wire: two closed-loop shippers, each with its own
// resilient tsdb.Client on its own loopback connection, sending WRITEB
// frames to a tsdb.Server over an in-memory store (the cmd/superdb
// default).
func runWire(ctx context.Context, cfg config, dir string) (*outcome, error) {
	o := newOutcome()
	sz := cfg.sizes
	streams := make([]*stream, sz.Shippers)
	for i := range streams {
		streams[i] = newStream(cfg.seed, i, liveMetrics, sz.Pool, sz.ObsTicks)
	}

	var ws *wireStack
	var ships []*shipper
	err := setUp(o, sz.SetupReps, "creating the store and server, listening and dialing until both shippers' first tick is acknowledged", func(int) (func() error, error) {
		var err error
		if ws, err = newWireStack(len(streams)); err != nil {
			return nil, err
		}
		ships = make([]*shipper, len(streams))
		for i, st := range streams {
			ships[i] = newShipper(st, cfg.seed, ws.clients[i], "tsdb.client.writeb")
		}
		return ws.close, firstTicks(ctx, ships)
	})
	if err != nil {
		return nil, err
	}
	defer ws.close()
	in := introspect.New()
	ws.db.SetIntrospection(in)

	closedLoop(ctx, ships, time.Duration(sz.WarmupS*float64(time.Second)), false, nil, nil)
	d := time.Duration(cfg.seconds * float64(time.Second))
	var win *window
	var log *spanLog
	var srvIn *introspect.Introspector
	stop := func() {}
	if cfg.trace {
		win, log = &window{}, newSpanLog()
		srvIn = introspect.New(introspect.WithSpanCapacity(1<<18), introspect.WithProcess("tsdb-server"))
		stop = alternate(win, d, func(on bool) {
			if on {
				ws.srv.SetTracing(srvIn)
			} else {
				ws.srv.SetTracing(nil)
			}
			// SetTracing re-points the served DB's hooks; keep its
			// footprint gauges in the benchmark's own registry.
			ws.db.SetIntrospection(in)
		})
	}
	reg := beginRegion()
	closedLoop(ctx, ships, d, true, win, log)
	stop()
	ws.srv.SetTracing(nil)
	ws.db.SetIntrospection(in)
	ticks := tickSamples(ships)
	recordTicks(o, ticks, reg)
	setStorageStats(o, ws.db, in)
	countTicks(o, ships)
	conserve(o, ws.db, 0, ships)
	var retries uint64
	for _, c := range ws.clients {
		retries += c.Stats().Retries
	}

	readback(ctx, o, ws.db, in, ships, cfg.corruptOracle)

	if cfg.trace {
		o.spans = log
		// The store is in memory; the storage probe measures the WAL a
		// durable server would run, under fsync=always.
		if err := probeLayers(ctx, o, streams[0], storage.FsyncAlways, filepath.Join(dir, "probe")); err != nil {
			return nil, err
		}
		attributeSink(o, log, "tsdb.client.writeb", "tsdb.client.writeb_us_per_tick")
		byName := map[string][]float64{}
		for _, s := range srvIn.Tracer().Spans() {
			byName[s.Name] = append(byName[s.Name], s.DurationSeconds()*1e6)
		}
		frames := len(byName["tsdb.server.writeb"])
		note := fmt.Sprintf("n=%d traced frames", frames)
		o.set("tsdb.server.writeb_us_per_tick", mean(byName["tsdb.server.writeb"]), note)
		o.set("tsdb.server.parse_us_per_tick", mean(byName["tsdb.server.parse"]), note)
		o.set("tsdb.server.insert_us_per_tick", mean(byName["tsdb.server.insert"]), note)
		o.set("resilience.wire_overhead_us_per_tick", o.metrics["tsdb.client.writeb_us_per_tick"]-
			o.metrics["tsdb.server.writeb_us_per_tick"]-perTick(o.metrics["tsdb.encode_ns_per_value"]),
			"client span minus server span minus client encode probe")
		o.set("resilience.retries", float64(retries), "Transport.Stats over the run")
		if dropped := srvIn.Tracer().Dropped(); dropped > 0 {
			o.notes["tsdb.server.writeb_us_per_tick"] += fmt.Sprintf(", %d spans dropped", dropped)
		}
	}
	finish(o)
	return o, nil
}
