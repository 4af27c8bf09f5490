package main

import (
	"fmt"
	"math"

	"pmove/internal/telemetry"
	"pmove/internal/tsdb"
)

// Input shape shared by every workload: one tick is one telemetry.Sample
// per metric, each carrying one value per CPU instance (_cpu0 … _cpu87,
// the skx row of the paper's Table III), all tagged with the observation
// id. Values are dyadic (k/4), so every oracle sum is exact in float64.

// tickHz is the sampling rate of every stream (the paper's 32 Hz).
const tickHz = 32

// tickNanos is the virtual-clock spacing of consecutive ticks.
const tickNanos = int64(1e9 / tickHz)

// numFields is the instance-domain width of every sample.
const numFields = 88

// liveMetrics are the counters the live and ingest streams sample.
var liveMetrics = []string{
	"perfevent.hwcounters.FP_ARITH:SCALAR_DOUBLE",
	"perfevent.hwcounters.FP_ARITH:512B_PACKED_DOUBLE",
	"perfevent.hwcounters.MEM_LOAD_RETIRED:L3_MISS",
	"kernel.percpu.cpu.idle",
	"kernel.percpu.cpu.user",
}

// historyMetrics are the counters the finished observations sampled: a
// different counter group than the live one, so the history panels
// live in measurements the live ticks never write.
var historyMetrics = []string{
	"perfevent.hwcounters.FP_ARITH:256B_PACKED_DOUBLE",
	"perfevent.hwcounters.FP_ARITH:128B_PACKED_DOUBLE",
	"perfevent.hwcounters.MEM_INST_RETIRED:ALL_LOADS",
	"kernel.percpu.cpu.sys",
	"kernel.percpu.cpu.wait.total",
}

// fieldNames are the instance names _cpu0 … _cpu87.
var fieldNames = func() []string {
	out := make([]string, numFields)
	for i := range out {
		out[i] = fmt.Sprintf("_cpu%d", i)
	}
	return out
}()

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// value is the deterministic dyadic value of one (stream, tick, metric,
// field) cell: k/4 with k in [0, 4096).
func value(seed uint64, stream, tick, metric, field int) float64 {
	key := uint64(stream)<<40 | uint64(tick)<<16 | uint64(metric)<<8 | uint64(field)
	return float64(mix(seed^mix(key))%4096) / 4
}

// stream is one target's telemetry: its metric set and a pool of
// pre-generated tick templates. Tick i ships pool[i%len(pool)], so a
// closed loop of unknown length never generates inputs while timed. With
// obsTicks set, the target runs back-to-back observations of that many
// ticks, each with its own observation id.
type stream struct {
	index    int
	tag      string
	obsTicks int
	metrics  []string
	pool     [][]telemetry.Sample
	// prefix[m][f][k] is the sum of field f of metric m over pool[:k].
	prefix [][][]float64
	// epoch is the virtual time, in seconds, of tick 0.
	epoch float64
	tags  []string // observation ids, by observation number
}

// newStream generates the tick pool of one stream.
func newStream(seed uint64, index int, metrics []string, poolSize, obsTicks int) *stream {
	s := &stream{
		index:    index,
		tag:      observationTag(seed, index),
		obsTicks: obsTicks,
		metrics:  metrics,
		pool:     make([][]telemetry.Sample, poolSize),
		epoch:    float64(10000 * (index + 1)),
	}
	s.prefix = make([][][]float64, len(metrics))
	for m := range metrics {
		s.prefix[m] = make([][]float64, numFields)
		for f := range s.prefix[m] {
			s.prefix[m][f] = make([]float64, poolSize+1)
		}
	}
	for k := range s.pool {
		samples := make([]telemetry.Sample, len(metrics))
		for m, name := range metrics {
			vals := make(map[string]float64, numFields)
			for f, fn := range fieldNames {
				v := value(seed, index, k, m, f)
				vals[fn] = v
				s.prefix[m][f][k+1] = s.prefix[m][f][k] + v
			}
			samples[m] = telemetry.Sample{Metric: name, Values: vals}
		}
		s.pool[k] = samples
	}
	return s
}

// observationTag is the observation id every point of a stream carries.
func observationTag(seed uint64, index int) string {
	h := mix(seed ^ uint64(index))
	return fmt.Sprintf("%08x-%04x-obs%d", uint32(h>>32), uint16(h), index)
}

// obs is the observation number of tick i.
func (s *stream) obs(i int) int {
	if s.obsTicks == 0 {
		return 0
	}
	return i / s.obsTicks
}

// tagOf is the id of observation j. Not safe for concurrent use: each
// stream belongs to one goroutine at a time.
func (s *stream) tagOf(j int) string {
	if s.obsTicks == 0 {
		return s.tag
	}
	for len(s.tags) <= j {
		s.tags = append(s.tags, fmt.Sprintf("%s.%d", s.tag, len(s.tags)))
	}
	return s.tags[j]
}

// tick returns the samples, virtual time and observation id of tick i.
func (s *stream) tick(i int) ([]telemetry.Sample, float64, string) {
	return s.pool[i%len(s.pool)], s.epoch + float64(i)/tickHz, s.tagOf(s.obs(i))
}

// points renders tick i as the tsdb points the Collector would write.
func (s *stream) points(i int) []tsdb.Point {
	samples, now, tag := s.tick(i)
	ts := int64(now * 1e9)
	out := make([]tsdb.Point, len(samples))
	for m, smp := range samples {
		out[m] = telemetry.ToPoint(smp, tag, ts)
	}
	return out
}

// sumTo is the exact sum of one (metric, field) over ticks [0, n).
func (s *stream) sumTo(n, metric, field int) float64 {
	p := s.prefix[metric][field]
	return float64(n/len(s.pool))*p[len(s.pool)] + p[n%len(s.pool)]
}

// sum is the exact sum of one (metric, field) over ticks [from, to).
func (s *stream) sum(from, to, metric, field int) float64 {
	return s.sumTo(to, metric, field) - s.sumTo(from, metric, field)
}

// agg is an exact reference aggregate of one (stream, metric, field).
type agg struct {
	count    uint64
	sum      float64
	min, max float64
}

func newAgg() agg { return agg{min: math.Inf(1), max: math.Inf(-1)} }

func (a *agg) add(v float64) {
	a.count++
	a.sum += v
	a.min = math.Min(a.min, v)
	a.max = math.Max(a.max, v)
}

// history is one finished observation: its points are generated tick by
// tick at preload, and its reference aggregates are kept per (metric,
// field).
type history struct {
	index int
	tag   string
	ticks int
	ref   [][]agg // [metric][field]
}

// historyEpochNanos is the virtual start of finished observation i; a
// whole second, so GROUP BY time(1s) windows align with its ticks.
func historyEpochNanos(i int) int64 { return int64(i+1) * 1e12 }

// historyPoints renders tick k of finished observation h and folds its
// values into the reference aggregates.
func historyPoints(seed uint64, h *history, k int) []tsdb.Point {
	ts := historyEpochNanos(h.index) + int64(k)*tickNanos
	out := make([]tsdb.Point, len(historyMetrics))
	for m, name := range historyMetrics {
		fields := make(map[string]float64, numFields)
		for f, fn := range fieldNames {
			v := value(seed, 1000+h.index, k, m, f)
			fields[fn] = v
			h.ref[m][f].add(v)
		}
		out[m] = tsdb.Point{
			Measurement: tsdb.MeasurementName(name),
			Tags:        map[string]string{"tag": h.tag},
			Fields:      fields,
			Time:        ts,
		}
	}
	return out
}

func newHistory(seed uint64, index, ticks int) *history {
	h := &history{index: index, tag: observationTag(seed, 1000+index), ticks: ticks}
	h.ref = make([][]agg, len(historyMetrics))
	for m := range h.ref {
		h.ref[m] = make([]agg, numFields)
		for f := range h.ref[m] {
			h.ref[m][f] = newAgg()
		}
	}
	return h
}
