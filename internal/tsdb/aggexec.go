package tsdb

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Aggregation execution: a parsed aggregate query is planned into one
// scan per field, the matching series of the measurement are split into
// scan units — one per overlapping sealed block plus one per non-empty
// head — and the units are scanned by a bounded worker pool. Each
// worker folds its units into partial per-window aggregates, and the
// coordinator merges partials in unit order so the result is
// deterministic for a fixed dataset regardless of scheduling. Workers
// observe context cancellation between units, never mid-unit, so a
// cancelled query releases the shard read lock promptly without tearing
// any partial.
//
// Sealed blocks give the scan two levels of shortcut: a block wholly
// inside the query's time bounds whose rows share one GROUP BY window
// folds straight from its footer (count/zeros/min/max/sum per field) —
// no decompression at all — and every other block decodes ONCE into a
// per-worker scratch buffer that is reused across units instead of
// materializing []Point.
//
// The scan holds the owning shard's RLock for its whole duration:
// writers shift head columns in place on out-of-order inserts, so
// workers may not retain head slices past the lock. Writers to other
// measurements (other stripes of the measurement map) are unaffected.

// fieldAgg is the partial aggregate of one field within one window.
type fieldAgg struct {
	count   uint64
	sum     float64
	min     float64
	max     float64
	samples []float64 // retained only when a percentile asks for the distribution
}

func (fa *fieldAgg) observe(v float64, keepSamples bool) {
	if fa.count == 0 {
		fa.min, fa.max = v, v
	} else {
		if v < fa.min {
			fa.min = v
		}
		if v > fa.max {
			fa.max = v
		}
	}
	fa.count++
	fa.sum += v
	if keepSamples {
		fa.samples = append(fa.samples, v)
	}
}

// merge folds o into fa. Partials are merged in unit order, so the
// fold order — and with it the floating-point sum — is deterministic.
func (fa *fieldAgg) merge(o *fieldAgg) {
	if o.count == 0 {
		return
	}
	if fa.count == 0 {
		fa.min, fa.max = o.min, o.max
	} else {
		if o.min < fa.min {
			fa.min = o.min
		}
		if o.max > fa.max {
			fa.max = o.max
		}
	}
	fa.count += o.count
	fa.sum += o.sum
	fa.samples = append(fa.samples, o.samples...)
}

// foldFooter merges a sealed block's per-field footer into fa — the
// whole-block fast path that never touches the compressed stream. The
// footer's sum was accumulated in row order at seal time, so the fold
// is the same association a decoded scan would produce.
func (fa *fieldAgg) foldFooter(f *blockField) {
	if fa.count == 0 {
		fa.min, fa.max = f.min, f.max
	} else {
		if f.min < fa.min {
			fa.min = f.min
		}
		if f.max > fa.max {
			fa.max = f.max
		}
	}
	fa.count += f.count
	fa.sum += f.sum
}

// aggPlan is the execution plan of an aggregate query: the distinct
// fields to observe and, per field, whether percentiles force sample
// retention. anySamples disables the footer fast path — percentiles
// need the raw distribution.
type aggPlan struct {
	fields      []string
	keepSamples []bool
	fieldIdx    map[string]int
	anySamples  bool
}

func planAggregates(q *Query) *aggPlan {
	p := &aggPlan{fieldIdx: map[string]int{}}
	for _, a := range q.Aggregates {
		i, ok := p.fieldIdx[a.Field]
		if !ok {
			i = len(p.fields)
			p.fieldIdx[a.Field] = i
			p.fields = append(p.fields, a.Field)
			p.keepSamples = append(p.keepSamples, false)
		}
		if a.Fn == "p" {
			p.keepSamples[i] = true
			p.anySamples = true
		}
	}
	return p
}

// windowStart floors t to the start of its GROUP BY window (Euclidean
// floor, so negative timestamps window consistently).
func windowStart(t, w int64) int64 {
	q := t / w
	if t%w != 0 && t < 0 {
		q--
	}
	return q * w
}

// windowAggs is the per-window state of one scan unit: window start
// → one fieldAgg per planned field.
type windowAggs map[int64][]fieldAgg

// aggUnit is one work item of the parallel scan: a sealed block of a
// matching series, or (b == nil) the series' mutable head.
type aggUnit struct {
	s *memSeries
	b *block
}

// aggScratch is a per-worker decode buffer: one timestamp slice and one
// value slice per planned field, reused across every block the worker
// scans — decode happens once per block, allocation once per worker.
type aggScratch struct {
	times []int64
	cols  [][]float64
}

// blockFooterOnly reports whether a sealed block can fold from its
// footer alone: every row inside the time bounds (0 = unbounded) and
// every row in the same GROUP BY window.
func blockFooterOnly(b *block, q *Query) bool {
	if (q.From != 0 && b.minT < q.From) || (q.To != 0 && b.maxT > q.To) {
		return false
	}
	return q.GroupBy <= 0 || windowStart(b.minT, q.GroupBy) == windowStart(b.maxT, q.GroupBy)
}

// foldColumns folds decoded (or head) columns into per-window partials.
// cols is aligned with plan.fields; a nil column means the unit does
// not carry that field. NaN cells are absent values.
func foldColumns(out windowAggs, times []int64, cols [][]float64, q *Query, plan *aggPlan) {
	lo, hi := timeBounds(times, q.From, q.To)
	var curStates []fieldAgg
	curWin := int64(0)
	for i := lo; i < hi; i++ {
		win := int64(0)
		if q.GroupBy > 0 {
			win = windowStart(times[i], q.GroupBy)
		}
		if curStates == nil || win != curWin {
			curStates = out[win]
			if curStates == nil {
				curStates = make([]fieldAgg, len(plan.fields))
				out[win] = curStates
			}
			curWin = win
		}
		for fi := range cols {
			if cols[fi] == nil {
				continue
			}
			if v := cols[fi][i]; v == v {
				curStates[fi].observe(v, plan.keepSamples[fi])
			}
		}
	}
}

// scanUnit folds one unit into per-window partial aggregates.
func scanUnit(u aggUnit, q *Query, plan *aggPlan, sc *aggScratch) (windowAggs, error) {
	out := windowAggs{}
	if u.b == nil {
		cols := make([][]float64, len(plan.fields))
		for fi, f := range plan.fields {
			if ci, ok := u.s.fields[f]; ok {
				cols[fi] = u.s.head.cols[ci]
			}
		}
		foldColumns(out, u.s.head.times, cols, q, plan)
		return out, nil
	}
	b := u.b
	if !plan.anySamples && blockFooterOnly(b, q) {
		win := int64(0)
		if q.GroupBy > 0 {
			win = windowStart(b.minT, q.GroupBy)
		}
		states := make([]fieldAgg, len(plan.fields))
		found := false
		for fi, f := range plan.fields {
			if bi := b.fieldIndex(f); bi >= 0 {
				states[fi].foldFooter(&b.fields[bi])
				found = true
			}
		}
		if found {
			out[win] = states
		}
		return out, nil
	}
	times, err := b.decodeTimes(sc.times)
	if err != nil {
		return nil, err
	}
	sc.times = times
	if cap(sc.cols) < len(plan.fields) {
		sc.cols = make([][]float64, len(plan.fields))
	}
	cols := sc.cols[:len(plan.fields)]
	for fi, f := range plan.fields {
		bi := b.fieldIndex(f)
		if bi < 0 {
			cols[fi] = nil
			continue
		}
		col, err := b.decodeField(bi, cols[fi])
		if err != nil {
			return nil, err
		}
		cols[fi] = col
	}
	sc.cols = cols
	foldColumns(out, times, cols, q, plan)
	return out, nil
}

// quantile returns the q∈[0,1] quantile of sorted by linear
// interpolation — the repo's one percentile estimator: internal/superdb
// reports the engine's percentiles rather than folding its own.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// selectKth partially reorders s so s[k] holds its sorted-order value,
// everything left of k is <= it and everything right is >= it —
// Hoare quickselect with median-of-three pivoting, O(n) expected. The
// order statistics it produces are exactly the sorted ones, so the
// quantile estimate is unchanged; only the full O(n log n) sort per
// window is gone.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return s[k]
}

// quantileSelect computes the same linear-interpolation estimate as
// quantile, but via selection instead of a full sort.
func quantileSelect(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return selectKth(s, n-1)
	}
	vi := selectKth(s, i)
	// After selectKth, s[i+1:] holds only values >= s[i]; the (i+1)-th
	// order statistic is their minimum.
	vj := s[i+1]
	for _, v := range s[i+2:] {
		if v < vj {
			vj = v
		}
	}
	frac := pos - float64(i)
	return vi*(1-frac) + vj*frac
}

// value renders one aggregate from its merged field state. Valid only
// when fa.count > 0 (except count, which is always defined).
func (a Aggregate) value(fa *fieldAgg) float64 {
	switch a.Fn {
	case "count":
		return float64(fa.count)
	case "sum":
		return fa.sum
	case "min":
		return fa.min
	case "max":
		return fa.max
	case "mean":
		return fa.sum / float64(fa.count)
	case "p":
		s := append([]float64(nil), fa.samples...)
		if len(s) <= 64 {
			sort.Float64s(s)
			return quantile(s, a.Pct/100)
		}
		return quantileSelect(s, a.Pct/100)
	}
	return math.NaN()
}

// aggColumns is the result column list, in query order.
func aggColumns(q *Query) []string {
	cols := make([]string, len(q.Aggregates))
	for i, a := range q.Aggregates {
		cols[i] = a.Column()
	}
	return cols
}

// defaultQueryWorkers bounds the scan pool when the request does not
// pin one: the machine's parallelism, capped at the shard width.
func defaultQueryWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > NumShards {
		w = NumShards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// execAggregate runs an aggregate query. The caller has validated that
// q carries only aggregates.
func (db *DB) execAggregate(ctx context.Context, q *Query, workers int) (*Result, error) {
	if workers <= 0 {
		workers = defaultQueryWorkers()
	}
	plan := planAggregates(q)
	res := &Result{Measurement: q.Measurement, Columns: aggColumns(q)}

	sh := db.shardFor(q.Measurement)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m := sh.measurements[q.Measurement]
	if m == nil {
		return res, nil
	}
	// Build the unit list in deterministic order: series in creation
	// order, each series' blocks in seal order, head last.
	var units []aggUnit
	for _, s := range m.series {
		if !s.matchTags(q.TagFilter) {
			continue
		}
		for _, b := range s.blocks {
			if (q.From != 0 && b.maxT < q.From) || (q.To != 0 && b.minT > q.To) {
				continue
			}
			units = append(units, aggUnit{s: s, b: b})
		}
		if minT, maxT, ok := s.head.timeRange(); ok {
			if (q.From != 0 && maxT < q.From) || (q.To != 0 && minT > q.To) {
				continue
			}
			units = append(units, aggUnit{s: s})
		}
	}
	if len(units) == 0 {
		return res, nil
	}
	if workers > len(units) {
		workers = len(units)
	}

	var merged windowAggs
	if workers == 1 {
		// Sequential path: one fold over the units, no pool.
		var sc aggScratch
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("tsdb: query: %w", err)
			}
			part, err := scanUnit(u, q, plan, &sc)
			if err != nil {
				return nil, err
			}
			mergeWindowAggs(&merged, part, plan)
		}
	} else {
		partials := make([]windowAggs, len(units))
		var next int64
		var wg sync.WaitGroup
		var errMu sync.Mutex
		var firstErr error
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc aggScratch
				for {
					if ctx.Err() != nil {
						return
					}
					errMu.Lock()
					failed := firstErr != nil
					errMu.Unlock()
					if failed {
						return
					}
					i := int(atomic.AddInt64(&next, 1) - 1)
					if i >= len(units) {
						return
					}
					part, err := scanUnit(units[i], q, plan, &sc)
					if err != nil {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					partials[i] = part
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tsdb: query: %w", err)
		}
		for _, part := range partials {
			mergeWindowAggs(&merged, part, plan)
		}
	}
	if merged == nil {
		merged = windowAggs{}
	}

	wins := make([]int64, 0, len(merged))
	for w := range merged {
		wins = append(wins, w)
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	for _, win := range wins {
		states := merged[win]
		any := false
		for fi := range states {
			if states[fi].count > 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		t := win
		if q.GroupBy <= 0 {
			t = q.From
		}
		row := Row{Time: t, Values: map[string]float64{}}
		for _, a := range q.Aggregates {
			fa := &states[plan.fieldIdx[a.Field]]
			if a.Fn == "count" {
				row.Values[a.Column()] = float64(fa.count)
				continue
			}
			if fa.count == 0 {
				continue
			}
			row.Values[a.Column()] = a.value(fa)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// mergeWindowAggs folds one unit's partials into the accumulated map,
// in call (= unit) order.
func mergeWindowAggs(merged *windowAggs, part windowAggs, plan *aggPlan) {
	if *merged == nil {
		*merged = windowAggs{}
	}
	for win, states := range part {
		dst := (*merged)[win]
		if dst == nil {
			dst = make([]fieldAgg, len(plan.fields))
			(*merged)[win] = dst
		}
		for fi := range states {
			dst[fi].merge(&states[fi])
		}
	}
}
