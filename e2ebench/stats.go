package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the 0.5 quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// sample is one timed operation of a run: a tick or a panel fetch.
type sample struct {
	at     time.Time // when it completed
	ms     float64   // its latency
	values int       // values it acked (ticks only)
	traced bool      // whether it ran in a traced window
}

// numWindows is how many equal time windows a timed region is split
// into. Each window's statistics are computed on their own and the run
// reports the median across windows, so a disturbance of the machine
// that spans a minority of the windows does not move the result.
const numWindows = 9

// minPerWindow is the fewest samples a window needs for its median;
// minPerWindowP99 the fewest for its p99 to have ten samples beyond it.
// With fewer samples the region has fewer windows, down to one.
const (
	minPerWindow    = 100
	minPerWindowP99 = 1000
)

// summary is the run-level statistics of one sample set.
type summary struct {
	p50, p99    float64 // ms
	avg         float64 // ms, mean latency
	opsPerS     float64
	valuesPerS  float64
	cpuPerValue float64 // ns of process CPU per value, whole region
	n           int
	windows     int // windows of the region
	used        int // calm windows the statistics are taken over
	p99Windows  int
	valuesTotal int
}

// summarize splits samples by completion time into windows of the
// region [start, start+elapsed) and reports, over the calmer half of the
// windows (see host.go), the median of each window's latency quantiles
// and rates. CPU per value is taken over the whole region: CPU time does
// not include what the hypervisor lends to other guests, and the garbage
// collector's share falls as the heap grows through the region, so any
// choice of windows would move it.
func summarize(samples []sample, start time.Time, elapsed time.Duration, h *hostLog) summary {
	sum := summary{n: len(samples)}
	sum.windows = min(numWindows, max(len(samples)/minPerWindow, 1))
	sum.p99Windows = min(numWindows, max(len(samples)/minPerWindowP99, 1))
	p50, avg, ops, vals := perWindow(samples, start, elapsed, sum.windows, 0.5)
	p99, _, _, _ := perWindow(samples, start, elapsed, sum.p99Windows, 0.99)
	calm := h.calm(start, elapsed, sum.windows)
	sum.used = len(calm)
	sum.p50, sum.avg = median(pick(p50, calm)), median(pick(avg, calm))
	sum.opsPerS, sum.valuesPerS = median(pick(ops, calm)), median(pick(vals, calm))
	sum.p99 = median(pick(p99, h.calm(start, elapsed, sum.p99Windows)))
	for _, s := range samples {
		sum.valuesTotal += s.values
	}
	if h != nil && sum.valuesTotal > 0 {
		sum.cpuPerValue = float64(h.cpu()) / float64(sum.valuesTotal)
	}
	return sum
}

// pick returns xs at the given indexes.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, xs[i])
	}
	return out
}

// perWindow returns, for each of w windows, the q-quantile and the mean
// latency, the ops per second and the values per second.
func perWindow(samples []sample, start time.Time, elapsed time.Duration, w int, q float64) (qs, avgs, ops, vals []float64) {
	buckets := make([][]float64, w)
	values := make([]float64, w)
	for _, s := range samples {
		i := min(max(int(int64(s.at.Sub(start))*int64(w)/int64(max(elapsed, 1))), 0), w-1)
		buckets[i] = append(buckets[i], s.ms)
		values[i] += float64(s.values)
	}
	secs := elapsed.Seconds() / float64(w)
	for i, b := range buckets {
		avgs = append(avgs, mean(b))
		qs = append(qs, quantile(b, q))
		ops = append(ops, float64(len(b))/secs)
		vals = append(vals, values[i]/secs)
	}
	return qs, avgs, ops, vals
}

// note describes how a summary's medians and rates were formed.
func (s summary) note() string {
	return fmt.Sprintf("n=%d, median of the %d calmest of %d windows", s.n, s.used, s.windows)
}

// noteP99 describes how a summary's p99 was formed.
func (s summary) noteP99() string {
	n := fmt.Sprintf("n=%d, median of the %d calmest of %d windows", s.n, (s.p99Windows+1)/2, s.p99Windows)
	if s.n < minPerWindowP99 {
		n += ", fewer than 10 samples beyond p99"
	}
	return n
}

// window reports whether the benchmark's own tracing is on for the
// current part of a traced run. A traced run alternates traced and
// untraced windows so that both halves see the same store state and
// machine noise, and their gap is the tracing overhead.
type window struct {
	traced atomic.Bool
}

// on reports whether spans should be recorded now; nil means untraced.
func (w *window) on() bool { return w != nil && w.traced.Load() }

// span is one timed interval the benchmark recorded around a call it
// made into the program. Times are nanoseconds since the run started.
// Spans of one tick or one panel share a trace id.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// id allocates a span or trace id.
func (l *spanLog) id() uint64 { return l.ids.Add(1) }

// at converts a wall instant to the log's relative nanoseconds.
func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.base)) }

// add records one finished span.
func (l *spanLog) add(name string, trace, id, parent uint64, start, end time.Time) {
	s := span{Name: name, Trace: trace, ID: id, Parent: parent, Start: l.at(start), End: l.at(end)}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// byName groups the recorded span durations by name.
func (l *spanLog) byName() map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], us(s.dur()))
	}
	return out
}

// write stores the spans as JSON in path, creating its directory.
func (l *spanLog) write(path string, extra map[string]any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{"spans": l.spans}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
