package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmove/internal/storage"
	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// probeTicks is how many recorded ticks an isolation probe replays.
const probeTicks = 64

// cost measures fn's wall time and heap allocations. Probes run on one
// goroutine after the timed region, when nothing else allocates, so the
// allocation counts repeat exactly.
func cost(fn func() error) (time.Duration, uint64, error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return d, b.Mallocs - a.Mallocs, err
}

// discardSink acknowledges every batch without storing it, isolating the
// Collector's own cost.
type discardSink struct{}

func (discardSink) WritePoint(tsdb.Point) error { return nil }

func (discardSink) WriteBatchContext(context.Context, []tsdb.Point) error { return nil }

// probeLayers replays the stream's recorded ticks through each inner
// layer's public function on one goroutine: the Collector (over a
// discarding sink), EncodeLine, DecodeLine, an in-memory insert, and a
// WAL append under the run's fsync policy.
func probeLayers(ctx context.Context, o *outcome, st *stream, pol storage.FsyncPolicy, dir string) error {
	n := min(probeTicks, len(st.pool))
	var pts []tsdb.Point
	for i := 0; i < n; i++ {
		pts = append(pts, st.points(i)...)
	}
	values := float64(len(pts) * numFields)
	perValue := func(d time.Duration, allocs uint64) (float64, float64) {
		return float64(d) / values, float64(allocs) / values
	}

	col := telemetry.NewCollector(nil, pipelineConfig(0, 0))
	col.Sink = discardSink{}
	d, allocs, err := cost(func() error {
		for i := 0; i < n; i++ {
			samples, now, tag := st.tick(i)
			if err := col.OfferContext(ctx, now, samples, tag, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("offer probe: %w", err)
	}
	o.set("telemetry.offer_allocs_per_tick", float64(allocs)/float64(n), fmt.Sprintf("probe: %.1fus per tick over a discarding sink", us(d)/float64(n)))

	lines := make([]string, len(pts))
	d, allocs, err = cost(func() error {
		for i, p := range pts {
			line, err := tsdb.EncodeLine(p)
			if err != nil {
				return err
			}
			lines[i] = line
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("encode probe: %w", err)
	}
	ns, al := perValue(d, allocs)
	o.set("tsdb.encode_ns_per_value", ns, fmt.Sprintf("probe: EncodeLine over %d points", len(pts)))
	o.set("tsdb.encode_allocs_per_value", al, "")

	d, allocs, err = cost(func() error {
		for _, line := range lines {
			if _, err := tsdb.DecodeLine(line); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode probe: %w", err)
	}
	ns, al = perValue(d, allocs)
	o.set("tsdb.decode_ns_per_value", ns, fmt.Sprintf("probe: DecodeLine over %d lines", len(lines)))
	o.set("tsdb.decode_allocs_per_value", al, "")

	mem := tsdb.New()
	per := len(st.metrics)
	d, allocs, err = cost(func() error {
		for i := 0; i < len(pts); i += per {
			if err := mem.WriteBatchContext(ctx, pts[i:i+per]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("insert probe: %w", err)
	}
	ns, al = perValue(d, allocs)
	o.set("tsdb.insert_ns_per_value", ns, "probe: WriteBatchContext on tsdb.New")
	o.set("tsdb.insert_allocs_per_value", al, "")

	// One tick's WAL record, as the durable store frames it.
	bodies := make([][]byte, per)
	for i := range bodies {
		bodies[i] = []byte(lines[i])
	}
	record := storage.EncodeBatchBody(bodies)
	appendUS, err := walAppend(filepath.Join(dir, "tick"), pol, record, 64)
	if err != nil {
		return err
	}
	o.set("storage.append_fsync_us", appendUS, fmt.Sprintf("probe: %d-byte tick records, fsync=%s", len(record), pol))
	tinyUS, err := walAppend(filepath.Join(dir, "tiny"), storage.FsyncAlways, []byte("x"), 64)
	if err != nil {
		return err
	}
	o.set("storage.fsync_per_s", 1e6/tinyUS, "probe: 1-byte WAL appends under fsync=always")
	return nil
}

// walAppend opens a fresh WAL under pol and returns the mean µs of n
// appends of record.
func walAppend(dir string, pol storage.FsyncPolicy, record []byte, n int) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	w, _, _, err := storage.OpenWAL(filepath.Join(dir, "wal.log"), pol)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := w.Append(record); err != nil {
			return 0, fmt.Errorf("wal probe: %w", err)
		}
	}
	return us(time.Since(t0)) / float64(n), nil
}

// machineFacts records what the numbers depend on: CPU count,
// GOMAXPROCS, Go version, raw fsync rate of the data directory's file
// system, and the loopback TCP round-trip time.
func machineFacts(dir string) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if v, err := fsyncRate(dir); err == nil {
		facts["fsync_per_s"] = v
	} else {
		facts["fsync_error"] = err.Error()
	}
	if v, err := loopbackRTT(); err == nil {
		facts["loopback_rtt_us"] = v
	} else {
		facts["loopback_error"] = err.Error()
	}
	return facts
}

// fsyncRate is how many 64-byte write+fsync pairs per second a file in
// dir sustains (median of 32).
func fsyncRate(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 64)
	var lat []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0).Seconds())
	}
	return 1 / median(lat), nil
}

// loopbackRTT is the median µs of 200 one-byte TCP ping-pongs over
// 127.0.0.1.
func loopbackRTT() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, 1)
		for {
			if _, err := c.Read(b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	b := make([]byte, 1)
	var lat []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err = c.Write(b); err != nil {
			break
		}
		if _, err = c.Read(b); err != nil {
			break
		}
		lat = append(lat, us(time.Since(t0)))
	}
	c.Close()
	<-done
	if err != nil {
		return 0, err
	}
	return median(lat), nil
}
