package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pmove/internal/dashboard"
	"pmove/internal/introspect"
	"pmove/internal/storage"
	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// pipelineConfig is the Collector configuration of every shipper: the
// paper-calibrated model with the report queue on, so the modelled
// Table III insertion cost delays reports but never drops one, and every
// generated value reaches the sink.
func pipelineConfig(seed uint64, i int) telemetry.PipelineConfig {
	cfg := telemetry.DefaultPipeline()
	cfg.Buffered = true
	cfg.Seed = seed + uint64(i)
	return cfg
}

// timedSink wraps the Collector's sink and remembers when the last batch
// call started and ended, so a traced tick can attribute its offer time
// to the collector itself and to the layer below it.
type timedSink struct {
	inner      telemetry.BatchPointSink
	start, end time.Time
}

func (t *timedSink) WritePoint(p tsdb.Point) error { return t.inner.WritePoint(p) }

func (t *timedSink) WriteBatchContext(ctx context.Context, ps []tsdb.Point) error {
	t.start = time.Now()
	err := t.inner.WriteBatchContext(ctx, ps)
	t.end = time.Now()
	return err
}

// shipper is one closed-loop telemetry shipper: a Collector over its own
// stream that offers the next tick as soon as the previous one is acked.
type shipper struct {
	st       *stream
	col      *telemetry.Collector
	sink     *timedSink
	sinkSpan string // span name of the sink call

	next    int    // next tick index == ticks acked so far
	values  uint64 // values acked so far, all phases
	offered int
	err     error

	samples []sample // timed ticks
}

func newShipper(st *stream, seed uint64, sink telemetry.BatchPointSink, sinkSpan string) *shipper {
	ts := &timedSink{inner: sink}
	col := telemetry.NewCollector(nil, pipelineConfig(seed, st.index))
	col.Sink = ts
	return &shipper{st: st, col: col, sink: ts, sinkSpan: sinkSpan}
}

// offer ships the next tick and returns its offer-to-ack latency.
// An open loop passes the tick's due time, which then starts the tick
// span; a closed loop passes the zero time.
func (s *shipper) offer(ctx context.Context, log *spanLog, traced bool, due time.Time) (time.Duration, error) {
	samples, now, tag := s.st.tick(s.next)
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	err := s.col.OfferContext(ctx, now, samples, tag, false)
	t1 := time.Now()
	s.offered++
	if err != nil {
		return 0, fmt.Errorf("stream %d tick %d: %w", s.st.index, s.next, err)
	}
	s.next++
	s.values += uint64(len(samples) * numFields)
	if traced {
		trace, root, off := log.id(), log.id(), log.id()
		log.add("tick", trace, root, 0, due, t1)
		log.add("telemetry.offer", trace, off, root, t0, t1)
		log.add(s.sinkSpan, trace, log.id(), off, s.sink.start, s.sink.end)
	}
	return t1.Sub(t0), nil
}

// closedLoop runs every shipper on its own goroutine for d. With timed
// set it records per-tick latency; win and log are nil when untraced.
func closedLoop(ctx context.Context, ships []*shipper, d time.Duration, timed bool, win *window, log *spanLog) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, s := range ships {
		wg.Add(1)
		go func(s *shipper) {
			defer wg.Done()
			for s.err == nil && time.Now().Before(deadline) {
				traced := win.on()
				before := s.values
				lat, err := s.offer(ctx, log, traced, time.Time{})
				if err != nil {
					s.err = err
					return
				}
				if timed {
					s.samples = append(s.samples, sample{time.Now(), ms(lat), int(s.values - before), traced})
				}
			}
		}(s)
	}
	wg.Wait()
}

// alternate flips a traced run between untraced and traced windows until
// the deadline; toggle, when set, switches program-side hooks with it.
func alternate(win *window, d time.Duration, toggle func(on bool)) (stop func()) {
	period := max(d/10, 200*time.Millisecond)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				on := !win.traced.Load()
				if toggle != nil {
					toggle(on)
				}
				win.traced.Store(on)
			}
		}
	}()
	return func() { close(done); <-finished }
}

// region is a timed region: its start and elapsed time, the machine
// and process counters sampled through it, and the process memory
// statistics at its start.
type region struct {
	start   time.Time
	elapsed time.Duration
	mem     runtime.MemStats
	host    *hostLog
}

func beginRegion() *region {
	r := &region{}
	runtime.ReadMemStats(&r.mem)
	r.host = startHostLog()
	r.start = time.Now()
	return r
}

// end closes the region and records the machine's steal and the
// process's allocations per acked value, GC cycles, and the heap in use
// after a forced GC.
func (r *region) end(o *outcome, ticks []sample) {
	r.elapsed = time.Since(r.start)
	r.host.end()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	o.set("host.steal_pct", r.host.stealPct(), "CPU time the hypervisor gave to other guests during the timed region")
	values := 0
	for _, t := range ticks {
		values += t.values
	}
	v := float64(max(values, 1))
	o.set("runtime.alloc_bytes_per_value", float64(m.TotalAlloc-r.mem.TotalAlloc)/v, "")
	o.set("runtime.gc_cycles", float64(m.NumGC-r.mem.NumGC), "")
	runtime.GC()
	runtime.ReadMemStats(&m)
	o.set("heap_inuse_mb", float64(m.HeapInuse)/1e6, "after a forced GC")
}

// tickSamples gathers every shipper's timed ticks.
func tickSamples(ships []*shipper) []sample {
	var all []sample
	for _, s := range ships {
		all = append(all, s.samples...)
	}
	return all
}

// recordTicks closes the region and reports its ticks: acked values per
// second, the tick latency quantiles, process CPU per value and, in a
// traced run, the tracing overhead on the median. It returns the values
// acked in the region.
func recordTicks(o *outcome, ticks []sample, reg *region) int {
	reg.end(o, ticks)
	sum := summarize(ticks, reg.start, reg.elapsed, reg.host)
	var on, off []float64
	for _, t := range ticks {
		if t.traced {
			on = append(on, t.ms)
		} else {
			off = append(off, t.ms)
		}
	}
	o.set("ingest_values_per_s", sum.valuesPerS, fmt.Sprintf("%d values acked in %.3fs, %s", sum.valuesTotal, reg.elapsed.Seconds(), sum.note()))
	o.set("cpu_ns_per_value", sum.cpuPerValue, fmt.Sprintf("process CPU over the whole region ÷ %d acked values", sum.valuesTotal))
	o.set("tick_ack_p50_ms", sum.p50, sum.note())
	o.set("tick_ack_p99_ms", sum.p99, sum.noteP99())
	setOverhead(o, on, off)
	return sum.valuesTotal
}

// setPanels reports panel fetch latency and rate.
func setPanels(o *outcome, fetched []sample, start time.Time, elapsed time.Duration, h *hostLog, what string) {
	sum := summarize(fetched, start, elapsed, h)
	o.set("panel_fetch_mean_ms", sum.avg, sum.note())
	o.set("panel_fetch_p50_ms", sum.p50, sum.note())
	o.set("panel_fetch_p99_ms", sum.p99, sum.noteP99())
	o.set("panels_per_s", sum.opsPerS, what+", "+sum.note())
}

// setOverhead reports how much slower traced ticks were than untraced
// ones, at the median.
func setOverhead(o *outcome, on, off []float64) {
	if len(on) == 0 || len(off) == 0 {
		o.set("trace.overhead_tick_ack_p50_pct", 0, "untraced run")
		return
	}
	o.set("trace.overhead_tick_ack_p50_pct", (median(on)/median(off)-1)*100,
		fmt.Sprintf("traced median over untraced median, n=%d/%d", len(on), len(off)))
}

// conserve checks that the store holds exactly the acked values and that
// no shipper's Collector lost or duplicated one.
func conserve(o *outcome, db *tsdb.DB, base uint64, ships []*shipper) uint64 {
	_, stored := db.Stats()
	var acked uint64
	var problems []string
	for _, s := range ships {
		acked += s.values
		if s.col.Expected != s.col.Inserted || s.col.Lost != 0 {
			problems = append(problems, fmt.Sprintf("stream %d: expected %d inserted %d lost %d", s.st.index, s.col.Expected, s.col.Inserted, s.col.Lost))
		}
		if s.err != nil {
			problems = append(problems, s.err.Error())
		}
	}
	if stored-base != acked {
		problems = append(problems, fmt.Sprintf("store gained %d values, shippers acked %d", stored-base, acked))
	}
	o.expect(fmt.Sprintf("conservation: %d acked values stored, Collector.Expected == Inserted", acked), errf(problems))
	return acked
}

// countTicks adds every offered tick to the attempted count and every
// refused one to the failed count.
func countTicks(o *outcome, ships []*shipper) {
	for _, s := range ships {
		o.attempted += s.offered
		if s.err != nil {
			o.failed++
		}
	}
}

// readback fetches count and sum of every (observation, metric, field)
// the shippers wrote through dashboard.FetchSeriesContext, once, and
// compares them with the generator's reference. It also reports the
// result cache's counters and the rows per fetch over the read-back.
func readback(ctx context.Context, o *outcome, db *tsdb.DB, in *introspect.Introspector, ships []*shipper, corrupt bool) {
	var problems []string
	fetched, rows := 0, 0
	before := in.Snapshot()
	for _, s := range ships {
		st, size := s.st, s.st.obsTicks
		for from := 0; from < s.next; from += size {
			to := min(from+size, s.next)
			for m, name := range st.metrics {
				for f, fn := range fieldNames {
					for _, agg := range []string{"count", "sum"} {
						t := dashboard.Target{Measurement: tsdb.MeasurementName(name), Params: fn, Tag: st.tagOf(st.obs(from)), Agg: agg}
						want := float64(to - from)
						if agg == "sum" {
							want = st.sum(from, to, m, f)
						}
						if corrupt && fetched == 1 {
							want += 0.25
						}
						_, vs, err := dashboard.FetchSeriesContext(ctx, db, t)
						fetched++
						rows += len(vs)
						if err == nil && (len(vs) != 1 || vs[0] != want) {
							err = fmt.Errorf("= %v, want %v", vs, want)
						}
						if err != nil {
							problems = append(problems, fmt.Sprintf("%s(%s) %s %s: %v", agg, fn, t.Measurement, t.Tag, err))
						}
					}
				}
			}
		}
	}
	o.attempted += fetched
	o.failed += len(problems)
	o.checks = append(o.checks, check{fmt.Sprintf("read-back: count and sum of %d observation fields match the generator", fetched/2), errf(problems)})
	o.set("dashboard.rows_per_fetch", float64(rows)/float64(max(fetched, 1)), "read-back")
	setCacheStats(o, in.Snapshot().Delta(before))
}

// setCacheStats reports the result cache's counters over a phase.
func setCacheStats(o *outcome, d introspect.Snapshot) {
	hits := float64(d.CounterValue("query.cache.hits"))
	misses := float64(d.CounterValue("query.cache.misses"))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	o.set("tsdb.query.cache_hit_ratio", ratio, fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	o.set("tsdb.query.cache_evictions", float64(d.CounterValue("query.cache.evictions")), "")
	o.set("tsdb.query.cache_invalidations", float64(d.CounterValue("query.cache.invalidations")), "")
}

// setStorageStats reads the columnar engine's footprint gauges.
func setStorageStats(o *outcome, db *tsdb.DB, in *introspect.Introspector) {
	snap := in.Snapshot()
	_, stored := db.Stats()
	o.set("resident_bytes_per_value", snap.GaugeValue("storage.bytes")/float64(max(stored, 1)),
		fmt.Sprintf("storage.bytes gauge over %d stored values", stored))
	o.set("tsdb.storage.blocks", snap.GaugeValue("storage.blocks"), "")
	o.set("tsdb.storage.compression_ratio", snap.GaugeValue("storage.compression.ratio"), "")
}

// fileSize is a file's size in bytes, 0 when it cannot be read.
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// setUp performs n set-ups and reports the median of their process CPU
// time as setup_s. open performs one and returns its teardown; each
// set-up starts only after the previous one was torn down and the heap
// collected, so no set-up is measured beside another's teardown. The
// last set-up stays up for the run. CPU time, not wall time, so that CPU
// the hypervisor lends to other guests does not count; the report notes
// the wall-clock median as well.
func setUp(o *outcome, n int, what string, open func(rep int) (teardown func() error, err error)) error {
	var cpu, wall []float64
	var teardown func() error
	for r := 0; r < n; r++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return err
			}
		}
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		td, err := open(r)
		c1, t1 := cpuTime(), time.Now()
		if err != nil {
			if td != nil {
				td()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		cpu = append(cpu, (c1 - c0).Seconds())
		wall = append(wall, t1.Sub(t0).Seconds())
		teardown = td
	}
	o.set("setup_s", median(cpu), fmt.Sprintf("median process CPU of %d set-ups (wall-clock median %.6fs), each %s", n, median(wall), what))
	return nil
}

// newShippers gives every stream a shipper over sink.
func newShippers(streams []*stream, seed uint64, sink telemetry.BatchPointSink, sinkSpan string) []*shipper {
	ships := make([]*shipper, len(streams))
	for i, st := range streams {
		ships[i] = newShipper(st, seed, sink, sinkSpan)
	}
	return ships
}

// firstTicks ships every shipper's first tick, one shipper after the
// other; a set-up ends when each has been acknowledged.
func firstTicks(ctx context.Context, ships []*shipper) error {
	for _, s := range ships {
		if _, err := s.offer(ctx, nil, false, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// finish records the failure ratio once every op and check has counted.
func finish(o *outcome) {
	o.set("failed_op_ratio", float64(o.failed)/float64(max(o.attempted, 1)), fmt.Sprintf("%d of %d", o.failed, o.attempted))
}

// runDurable is ingest-durable: two closed-loop shippers, each with its
// own Collector, writing into one embedded store opened with
// fsync=always.
func runDurable(ctx context.Context, cfg config, dir string) (*outcome, error) {
	o := newOutcome()
	sz := cfg.sizes
	streams := make([]*stream, sz.Shippers)
	for i := range streams {
		streams[i] = newStream(cfg.seed, i, liveMetrics, sz.Pool, sz.ObsTicks)
	}

	var db *tsdb.DB
	var dbDir string
	var ships []*shipper
	err := setUp(o, sz.SetupReps, "opening a fresh fsync=always store until both shippers' first tick is acknowledged", func(r int) (func() error, error) {
		dbDir = filepath.Join(dir, fmt.Sprintf("store%d", r))
		var err error
		if db, err = tsdb.Open(dbDir, storage.FsyncAlways); err != nil {
			return nil, err
		}
		ships = newShippers(streams, cfg.seed, db, "tsdb.write_batch")
		return db.Close, firstTicks(ctx, ships)
	})
	if err != nil {
		return nil, err
	}
	in := introspect.New()
	db.SetIntrospection(in)

	closedLoop(ctx, ships, time.Duration(sz.WarmupS*float64(time.Second)), false, nil, nil)
	walBefore := fileSize(db.WALPath())
	d := time.Duration(cfg.seconds * float64(time.Second))
	var win *window
	var log *spanLog
	stop := func() {}
	if cfg.trace {
		win, log = &window{}, newSpanLog()
		stop = alternate(win, d, nil)
	}
	reg := beginRegion()
	closedLoop(ctx, ships, d, true, win, log)
	stop()
	ticks := tickSamples(ships)
	values := recordTicks(o, ticks, reg)
	walBytes := fileSize(db.WALPath()) - walBefore
	o.set("wal_bytes_per_value", float64(walBytes)/float64(max(values, 1)), "WAL growth over the timed region")
	setStorageStats(o, db, in)
	countTicks(o, ships)

	acked := conserve(o, db, 0, ships)
	if err := db.Crash(); err != nil {
		return nil, err
	}
	rdb, err := tsdb.Open(dbDir, storage.FsyncAlways)
	if err != nil {
		o.expect("crash recovery: reopen after DB.Crash", err)
		finish(o)
		return o, nil
	}
	defer rdb.Close()
	_, recovered := rdb.Stats()
	var lost error
	if recovered != acked {
		lost = fmt.Errorf("recovered %d values, %d were acked", recovered, acked)
	}
	o.expect(fmt.Sprintf("crash recovery: all %d acked values survive DB.Crash under fsync=always", acked), lost)
	rin := introspect.New()
	rdb.SetIntrospection(rin)
	readback(ctx, o, rdb, rin, ships, cfg.corruptOracle)

	if cfg.trace {
		o.set("storage.wal_bytes_per_tick", float64(walBytes)/float64(max(len(ticks), 1)), "")
		o.spans = log
		if err := probeLayers(ctx, o, streams[0], storage.FsyncAlways, filepath.Join(dir, "probe")); err != nil {
			return nil, err
		}
		attributeSink(o, log, "tsdb.write_batch", "tsdb.write_batch_us_per_tick")
		o.set("storage.wal_lock_wait_us_per_tick", o.metrics["tsdb.write_batch_us_per_tick"]-
			perTick(o.metrics["tsdb.encode_ns_per_value"]+o.metrics["tsdb.insert_ns_per_value"])-
			o.metrics["storage.append_fsync_us"], "write_batch span minus encode, append+fsync and insert probes")
	}
	finish(o)
	return o, nil
}

// perTick converts a per-value ns cost to µs per 440-value tick.
func perTick(nsPerValue float64) float64 {
	return nsPerValue * float64(len(liveMetrics)*numFields) / 1e3
}

// attributeSink reports the mean sink call per tick as metric and the
// Collector's self time (offer minus sink) from the traced ticks.
func attributeSink(o *outcome, log *spanLog, sinkSpan, metric string) {
	by := log.byName()
	sink := mean(by[sinkSpan])
	o.set(metric, sink, fmt.Sprintf("n=%d traced ticks", len(by[sinkSpan])))
	o.set("telemetry.offer_self_us_per_tick", mean(by["telemetry.offer"])-sink, "offer span minus "+metric)
}
