package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The machine this benchmark runs on may be a virtual machine whose
// hypervisor lends its CPUs to other guests from time to time ("steal").
// A timed region therefore samples the machine's steal counter and the
// process's CPU time, and the wall-clock statistics are taken over the
// calmer half of the region's windows: a host disturbance that covers
// less than half of the region does not move them, while anything the
// program does affects every window alike.

// hostSample is one reading of the machine and process CPU counters.
type hostSample struct {
	at           time.Time
	steal, total uint64 // machine-wide jiffies
	cpu          time.Duration
}

// hostLog samples the counters every period until stopped.
type hostLog struct {
	samples []hostSample
	stop    chan struct{}
	done    chan struct{}
}

const hostPeriod = 50 * time.Millisecond

func startHostLog() *hostLog {
	h := &hostLog{stop: make(chan struct{}), done: make(chan struct{})}
	h.samples = append(h.samples, readHost())
	go func() {
		defer close(h.done)
		t := time.NewTicker(hostPeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.samples = append(h.samples, readHost())
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it and takes a final reading.
func (h *hostLog) end() {
	close(h.stop)
	<-h.done
	h.samples = append(h.samples, readHost())
}

// readHost reads the machine's steal and total jiffies from /proc/stat
// (zeros where it is unavailable) and the process CPU time.
func readHost() hostSample {
	s := hostSample{at: time.Now(), cpu: cpuTime()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostSample{at: s.at, cpu: s.cpu}
		}
		if i == 7 {
			s.steal = n
		}
		s.total += n
	}
	return s
}

// at returns the last reading taken at or before t (the first if none).
func (h *hostLog) at(t time.Time) hostSample {
	i := sort.Search(len(h.samples), func(i int) bool { return h.samples[i].at.After(t) })
	return h.samples[max(i-1, 0)]
}

// steal returns the steal share of machine CPU time in [a, b).
func (h *hostLog) steal(a, b time.Time) float64 {
	x, y := h.at(a), h.at(b)
	if y.total <= x.total {
		return 0
	}
	return float64(y.steal-x.steal) / float64(y.total-x.total)
}

// cpu is the process CPU time spent over the whole log.
func (h *hostLog) cpu() time.Duration {
	return h.samples[len(h.samples)-1].cpu - h.samples[0].cpu
}

// stealPct is the steal share over the whole log, in percent.
func (h *hostLog) stealPct() float64 {
	first, last := h.samples[0], h.samples[len(h.samples)-1]
	if last.total <= first.total {
		return 0
	}
	return float64(last.steal-first.steal) * 100 / float64(last.total-first.total)
}

// calm returns the indexes of the ceil(w/2) windows of [start,
// start+elapsed) with the least steal, in window order; all windows when
// there is no log.
func (h *hostLog) calm(start time.Time, elapsed time.Duration, w int) []int {
	idx := make([]int, w)
	steal := make([]float64, w)
	for i := range idx {
		idx[i] = i
		if h != nil {
			a, b := windowBounds(start, elapsed, w, i)
			steal[i] = h.steal(a, b)
		}
	}
	if h == nil {
		return idx
	}
	sort.SliceStable(idx, func(i, j int) bool { return steal[idx[i]] < steal[idx[j]] })
	idx = idx[:(w+1)/2]
	sort.Ints(idx)
	return idx
}

// windowBounds returns window i of w equal windows of the region.
func windowBounds(start time.Time, elapsed time.Duration, w, i int) (time.Time, time.Time) {
	return start.Add(elapsed * time.Duration(i) / time.Duration(w)),
		start.Add(elapsed * time.Duration(i+1) / time.Duration(w))
}
