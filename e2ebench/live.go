package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"pmove/internal/dashboard"
	"pmove/internal/introspect"
	"pmove/internal/storage"
	"pmove/internal/tsdb"
)

// panel is one dashboard panel the refresher can fetch, with the check
// its answer must pass.
type panel struct {
	class string
	t     dashboard.Target
	check func(vs []float64) error
}

// panelSet is dashboard-live's panel mix.
type panelSet struct {
	live, footer, p99, raw []panel
	next                   int // panels picked so far
	rng                    *rand.Rand
	footerZipf, p99Zipf    *rand.Zipf
}

// pick returns the next panel. The classes take turns (live window,
// history footer, history p99, raw), so each is a quarter of the mix;
// within a class the panel is drawn uniformly for live and raw panels
// and under a seeded Zipf skew for the cold aggregates, so hot panels
// repeat and the tail evicts.
func (ps *panelSet) pick() panel {
	ps.next++
	switch ps.next % 4 {
	case 1:
		return ps.live[ps.rng.Intn(len(ps.live))]
	case 2:
		return ps.footer[ps.footerZipf.Uint64()]
	case 3:
		return ps.p99[ps.p99Zipf.Uint64()]
	default:
		return ps.raw[ps.rng.Intn(len(ps.raw))]
	}
}

// newPanelSet builds the panels over the live targets and the finished
// observations. Cold aggregate panels are observations × metrics ×
// fields × 5 aggregates; their order under the skew is seeded.
func newPanelSet(seed uint64, live []*stream, hist []*history, fields []int) *panelSet {
	ps := &panelSet{rng: rand.New(rand.NewSource(int64(seed)))}
	nonEmpty := func(vs []float64) error {
		if len(vs) == 0 {
			return fmt.Errorf("no rows")
		}
		return nil
	}
	for _, st := range live {
		for _, name := range st.metrics {
			for _, f := range fields {
				for _, fn := range []string{"mean", "p99"} {
					ps.live = append(ps.live, panel{"live_window", dashboard.Target{
						Measurement: tsdb.MeasurementName(name), Params: fieldNames[f],
						Tag: st.tag, Agg: fn, Window: "1s"}, nonEmpty})
				}
			}
		}
	}
	for _, h := range hist {
		windows := (h.ticks + tickHz - 1) / tickHz
		for m, name := range historyMetrics {
			for _, f := range fields {
				ref := &h.ref[m][f]
				base := dashboard.Target{Measurement: tsdb.MeasurementName(name), Params: fieldNames[f], Tag: h.tag}
				with := func(fn, window string) dashboard.Target {
					t := base
					t.Agg, t.Window = fn, window
					return t
				}
				ps.footer = append(ps.footer,
					panel{"history_footer", with("mean", ""), func(vs []float64) error {
						return one(vs, ref.sum/float64(ref.count), 1e-12)
					}},
					panel{"history_footer", with("max", ""), func(vs []float64) error {
						return one(vs, ref.max, 0)
					}})
				ps.p99 = append(ps.p99,
					panel{"history_p99", with("p99", ""), func(vs []float64) error {
						if len(vs) != 1 || vs[0] < ref.min || vs[0] > ref.max {
							return fmt.Errorf("p99 %v outside [%v, %v]", vs, ref.min, ref.max)
						}
						return nil
					}},
					panel{"history_p99", with("mean", "1s"), func(vs []float64) error {
						return windowed(vs, windows, ref.min, ref.max)
					}},
					panel{"history_p99", with("max", "1s"), func(vs []float64) error {
						return windowed(vs, windows, ref.min, ref.max)
					}},
				)
				ps.raw = append(ps.raw, panel{"raw", base, func(vs []float64) error {
					if len(vs) != h.ticks {
						return fmt.Errorf("raw panel has %d rows, want %d", len(vs), h.ticks)
					}
					return nil
				}})
			}
		}
	}
	for _, class := range [][]panel{ps.footer, ps.p99} {
		ps.rng.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
	}
	ps.footerZipf = rand.NewZipf(ps.rng, 1.1, 1, uint64(len(ps.footer)-1))
	ps.p99Zipf = rand.NewZipf(ps.rng, 1.1, 1, uint64(len(ps.p99)-1))
	return ps
}

// one checks a single-value answer against want within a relative tolerance.
func one(vs []float64, want, rel float64) error {
	if len(vs) != 1 || math.Abs(vs[0]-want) > rel*math.Abs(want) {
		return fmt.Errorf("got %v, want %v", vs, want)
	}
	return nil
}

// windowed checks a GROUP BY time(1s) answer: one row per window, every
// value within the series' range.
func windowed(vs []float64, windows int, lo, hi float64) error {
	if len(vs) != windows {
		return fmt.Errorf("%d windows, want %d", len(vs), windows)
	}
	for _, v := range vs {
		if v < lo || v > hi {
			return fmt.Errorf("window value %v outside [%v, %v]", v, lo, hi)
		}
	}
	return nil
}

// preload writes the finished observations and the live targets' past
// into a fresh store through DB.WriteBatchContext on two goroutines,
// then compacts it into a snapshot.
func preload(ctx context.Context, dir string, seed uint64, hist []*history, live []*stream, past int) error {
	db, err := tsdb.Open(dir, storage.FsyncInterval)
	if err != nil {
		return err
	}
	const batchTicks = 16
	var jobs []func() error
	for _, h := range hist {
		jobs = append(jobs, func() error {
			var batch []tsdb.Point
			for k := 0; k < h.ticks; k++ {
				batch = append(batch, historyPoints(seed, h, k)...)
				if len(batch) >= batchTicks*len(historyMetrics) || k == h.ticks-1 {
					if err := db.WriteBatchContext(ctx, batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
			}
			return nil
		})
	}
	for _, st := range live {
		jobs = append(jobs, func() error {
			var batch []tsdb.Point
			for k := 0; k < past; k++ {
				batch = append(batch, st.points(k)...)
				if len(batch) >= batchTicks*len(st.metrics) || k == past-1 {
					if err := db.WriteBatchContext(ctx, batch); err != nil {
						return err
					}
					batch = batch[:0]
				}
			}
			return nil
		})
	}
	work := make(chan func() error)
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range work {
				errs <- job()
			}
		}()
	}
	for _, job := range jobs {
		work <- job
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			db.Close()
			return fmt.Errorf("preload: %w", err)
		}
	}
	if err := db.Compact(); err != nil {
		db.Close()
		return err
	}
	return db.Close()
}

// fetch is one timed panel fetch.
type fetch struct {
	sample
	class string
	rows  int
	t     dashboard.Target
}

// runLive is dashboard-live: a preloaded durable store (fsync=interval)
// receives 32 Hz ticks from a few live targets on an open-loop schedule
// while one refresher fetches dashboard panels on an open-loop schedule
// of its own. With both rates fixed, the process CPU per acked value
// covers the ingest and the query work alike.
func runLive(ctx context.Context, cfg config, dir string) (*outcome, error) {
	o := newOutcome()
	sz := cfg.sizes
	live := make([]*stream, sz.LiveTargets)
	for i := range live {
		live[i] = newStream(cfg.seed, i, liveMetrics, sz.Pool, 0)
	}
	hist := make([]*history, sz.HistoryObs)
	for i := range hist {
		hist[i] = newHistory(cfg.seed, i, sz.HistoryTicks)
	}
	fields := rand.New(rand.NewSource(int64(cfg.seed))).Perm(numFields)[:sz.PanelFields]
	panels := newPanelSet(cfg.seed, live, hist, fields)
	t0 := time.Now()
	if err := preload(ctx, filepath.Join(dir, "store"), cfg.seed, hist, live, sz.LivePast); err != nil {
		return nil, err
	}
	preloadS := time.Since(t0).Seconds()

	var db *tsdb.DB
	err := setUp(o, sz.SetupReps, fmt.Sprintf("reopening the preloaded store (the preload itself took %.2fs)", preloadS), func(int) (func() error, error) {
		var err error
		db, err = tsdb.Open(filepath.Join(dir, "store"), storage.FsyncInterval)
		if err != nil {
			return nil, err
		}
		return db.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	in := introspect.New()
	db.SetIntrospection(in)
	_, base := db.Stats()
	ships := newShippers(live, cfg.seed, db, "tsdb.write_batch")
	for _, s := range ships {
		s.next = sz.LivePast
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	var win *window
	var log *spanLog
	stop := func() {}
	if cfg.trace {
		win, log = &window{}, newSpanLog()
		stop = alternate(win, d, nil)
	}
	walBefore := fileSize(db.WALPath())
	cacheBefore := in.Snapshot()
	reg := beginRegion()
	deadline := reg.start.Add(d)
	var late, panelLate []float64
	var fetches []fetch
	var panelOn, panelOff []float64
	var panelProblems []string
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // open-loop ingest: every target's tick is due every 1/32 s
		defer wg.Done()
		// The targets are not synchronized: their schedules are offset by
		// an equal share of the period, so one generator interleaves them.
		gap := time.Second / time.Duration(tickHz*len(ships))
		for e := 0; ; e++ {
			due := reg.start.Add(time.Duration(e) * gap)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			late = append(late, ms(time.Since(due)))
			s := ships[e%len(ships)]
			traced := win.on()
			before := s.values
			if _, err := s.offer(ctx, log, traced, due); err != nil {
				s.err = err
				return
			}
			now := time.Now()
			s.samples = append(s.samples, sample{now, ms(now.Sub(due)), int(s.values - before), traced})
		}
	}()
	go func() { // open-loop dashboard refresher: a panel is due every 1/PanelHz s
		defer wg.Done()
		gap := time.Second / time.Duration(sz.PanelHz)
		for e := 0; ; e++ {
			due := reg.start.Add(time.Duration(e) * gap)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			p := panels.pick()
			traced := win.on()
			t0 := time.Now()
			panelLate = append(panelLate, ms(t0.Sub(due)))
			_, vs, err := dashboard.FetchSeriesContext(ctx, db, p.t)
			t1 := time.Now()
			if err == nil {
				err = p.check(vs)
			}
			f := fetch{sample{t1, ms(t1.Sub(t0)), 0, traced}, p.class, len(vs), p.t}
			fetches = append(fetches, f)
			if traced {
				trace, root := log.id(), log.id()
				log.add("panel."+p.class, trace, root, 0, due, t1)
				log.add("dashboard.fetch", trace, log.id(), root, t0, t1)
				panelOn = append(panelOn, f.ms)
			} else {
				panelOff = append(panelOff, f.ms)
			}
			if err != nil {
				panelProblems = append(panelProblems, fmt.Sprintf("%s %s(%s) %s: %v", p.class, p.t.Agg, p.t.Params, p.t.Measurement, err))
			}
		}
	}()
	wg.Wait()
	stop()
	ticks := tickSamples(ships)
	values := recordTicks(o, ticks, reg)
	cache := in.Snapshot().Delta(cacheBefore)
	walBytes := fileSize(db.WALPath()) - walBefore
	o.set("wal_bytes_per_value", float64(walBytes)/float64(max(values, 1)), "WAL growth over the timed region")
	setStorageStats(o, db, in)
	countTicks(o, ships)
	o.set("loadgen.late_p99_ms", quantile(late, 0.99), fmt.Sprintf("n=%d tick due times", len(late)))
	o.set("loadgen.panel_late_p99_ms", quantile(panelLate, 0.99), fmt.Sprintf("n=%d panel due times", len(panelLate)))

	var fetched []sample
	rows := 0
	byClass := map[string][]float64{}
	for _, f := range fetches {
		fetched = append(fetched, f.sample)
		rows += f.rows
		byClass[f.class] = append(byClass[f.class], f.ms*1e3)
	}
	setPanels(o, fetched, reg.start, reg.elapsed, reg.host, "refresher panels")
	o.set("dashboard.rows_per_fetch", float64(rows)/float64(max(len(fetched), 1)), "")
	for _, c := range panelClasses {
		o.set("dashboard.fetch_us."+c, mean(byClass[c]), fmt.Sprintf("n=%d", len(byClass[c])))
	}
	setCacheStats(o, cache)
	o.attempted += len(fetches)
	o.failed += len(panelProblems)
	o.checks = append(o.checks, check{fmt.Sprintf("panels: %d fetched panels pass their checks", len(fetches)), errf(panelProblems)})
	if len(panelOn) > 0 && len(panelOff) > 0 {
		o.notes["trace.overhead_tick_ack_p50_pct"] += fmt.Sprintf("; panel fetch p50 overhead %.1f%%", (median(panelOn)/median(panelOff)-1)*100)
	}

	conserve(o, db, base, ships)
	historyOracle(ctx, o, db, hist, fields, cfg.corruptOracle)

	if cfg.trace {
		o.spans = log
		if err := probeLayers(ctx, o, live[0], storage.FsyncInterval, filepath.Join(dir, "probe")); err != nil {
			return nil, err
		}
		attributeSink(o, log, "tsdb.write_batch", "tsdb.write_batch_us_per_tick")
		o.set("storage.wal_bytes_per_tick", float64(walBytes)/float64(max(len(late), 1)), "")
		probeQueries(ctx, o, db, fetches)
	}
	finish(o)
	return o, nil
}

// historyOracle compares exact count/sum/min/max of every charted field
// of every finished observation with the generator's reference.
func historyOracle(ctx context.Context, o *outcome, db *tsdb.DB, hist []*history, fields []int, corrupt bool) {
	if corrupt {
		hist[0].ref[0][fields[0]].sum += 0.25
	}
	var problems []string
	n := 0
	for _, h := range hist {
		for m, name := range historyMetrics {
			for _, f := range fields {
				ref := h.ref[m][f]
				for _, c := range []struct {
					fn   string
					want float64
				}{{"count", float64(ref.count)}, {"sum", ref.sum}, {"min", ref.min}, {"max", ref.max}} {
					t := dashboard.Target{Measurement: tsdb.MeasurementName(name), Params: fieldNames[f], Tag: h.tag, Agg: c.fn}
					_, vs, err := dashboard.FetchSeriesContext(ctx, db, t)
					n++
					if err == nil {
						err = one(vs, c.want, 0)
					}
					if err != nil {
						problems = append(problems, fmt.Sprintf("%s %s(%s): %v", h.tag, c.fn, fieldNames[f], err))
					}
				}
			}
		}
	}
	o.expect(fmt.Sprintf("query oracle: %d exact count/sum/min/max answers on the finished observations", n), errf(problems))
}

// probeQueries replays recorded panels of each class through
// DB.ExecuteContext with the result cache bypassed, on one goroutine.
func probeQueries(ctx context.Context, o *outcome, db *tsdb.DB, fetches []fetch) {
	const perClass = 64
	byClass := map[string][]dashboard.Target{}
	for _, f := range fetches {
		if len(byClass[f.class]) < perClass {
			byClass[f.class] = append(byClass[f.class], f.t)
		}
	}
	for _, c := range panelClasses {
		var lat []float64
		for _, t := range byClass[c] {
			q, err := t.Query()
			if err != nil {
				continue
			}
			t0 := time.Now()
			if _, err := db.ExecuteContext(ctx, tsdb.QueryRequest{Query: q, SkipCache: true}); err != nil {
				continue
			}
			lat = append(lat, us(time.Since(t0)))
		}
		o.set("tsdb.query.exec_us."+c, mean(lat), fmt.Sprintf("n=%d replayed, cache bypassed", len(lat)))
	}
}
