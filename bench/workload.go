package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	janus "repro"
)

// refOps is how many leading ops of every run are compared against the
// imperative reference before anything is timed.
const refOps = 20

// workload is one closed-loop traffic mix against one user-visible path.
type workload interface {
	name() string
	// clients is the number of load goroutines; replicas the number of
	// engines the booted system runs ops on in parallel.
	clients() int
	replicas() int
	// items is what one successful op contributes to items_per_s: training
	// samples or request rows.
	items() int
	// prepare generates the inputs from seed and computes the reference from
	// the imperative engine. It is not part of set-up time.
	prepare(seed uint64) error
	inputHash() string
	// boot is one cold start: a fresh Runtime, Server or Cluster, Compile,
	// the profiling iterations, conversion, passes and plan, through the
	// first op verified on the graph path.
	boot() (system, error)
	// layers runs the bypass ladder and the direct cold-path timings of the
	// traced run against a booted, warm system.
	layers(sys system, t *tracer) (map[string]float64, error)
}

// system is a booted workload. Ops are numbered from 0 across boot, verify
// and the timed window; op i always uses the same inputs.
type system interface {
	// op runs op i on behalf of a client and checks its output; the first
	// refOps ops are checked against the reference.
	op(client, i int) error
	// booted is how many ops boot already ran (ops 0..booted-1).
	booted() int
	// finish runs the end-of-run checks.
	finish() error
	// engineStats reports the engine counters, when the workload's public
	// API exposes them.
	engineStats() (janus.Stats, bool)
	close()
}

// closeTo reports |got-want| <= tol*max(1,|want|), and false for NaN/Inf.
func closeTo(got, want, tol float64) bool {
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return false
	}
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// opSample is one completed op of a measurement window.
type opSample struct {
	client, index int
	start, end    time.Time
	failed        bool
}

func (s opSample) ms() float64 { return msBetween(s.start, s.end) }

// sliceLen is the length of one slice of a window; cleanShare is the share of
// slices a window's statistics are computed from.
//
// The machines this benchmark runs on slow a processor to about 0.6x of its
// speed in bursts of one to ten seconds (the sibling hardware thread is busy
// with someone else's work), and for a minute at a time most seconds can be
// like that. A burst is not the program's doing and no statistic over a whole
// window survives it, so a window is cut into one-second slices, the slices
// are ranked by throughput, and the window's numbers are computed from the
// fastest fifth: the clean slices. README.md, "Clean slices", has the probe
// and what this choice can hide.
const (
	sliceLen   = time.Second
	cleanShare = 0.2
)

// sliceStat is one slice of a window.
type sliceStat struct {
	Rate     float64 `json:"items_per_s"`   // items of successful ops / the slice's wall time
	P50      float64 `json:"p50_ms"`        // successful ops
	CPUPerOp float64 `json:"cpu_ms_per_op"` // process user+sys CPU / ops
	Ops      int     `json:"ops"`
	Clean    bool    `json:"clean"`

	samples []opSample
	cpuMs   float64
}

// window is the outcome of one closed-loop measurement.
type window struct {
	slices   []sliceStat
	failed   int
	firstErr error
	lateness []float64 // ms between a reply and the same client's next send
	allocKB  float64   // runtime.MemStats.TotalAlloc delta over the whole window
}

// windowStats are a window's numbers, computed over its clean slices.
type windowStats struct {
	rate     float64 // items/s: median of the clean slices' rates
	p50, p99 float64 // ms, over the pooled successful ops of the clean slices
	cpuPerOp float64 // ms: CPU of the clean slices / their ops
	samples  int     // ops behind the percentiles
}

func (w *window) ops() int {
	n := 0
	for _, s := range w.slices {
		n += s.Ops
	}
	return n
}

// samples returns every op of the window in slice order.
func (w *window) samples() []opSample {
	var out []opSample
	for _, s := range w.slices {
		out = append(out, s.samples...)
	}
	return out
}

// stats marks the clean slices and computes the window's numbers from them.
func (w *window) stats() windowStats {
	order := make([]int, len(w.slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w.slices[order[a]].Rate > w.slices[order[b]].Rate })
	keep := int(math.Ceil(cleanShare * float64(len(order))))
	var st windowStats
	var rates []float64
	var pooled []opSample
	cpu, ops := 0.0, 0
	for _, i := range order[:keep] {
		s := &w.slices[i]
		s.Clean = true
		rates = append(rates, s.Rate)
		pooled = append(pooled, s.samples...)
		cpu, ops = cpu+s.cpuMs, ops+s.Ops
	}
	lat := latenciesMs(pooled)
	st.rate, st.samples = median(rates), len(lat)
	st.p50, st.p99 = percentile(lat, 0.50), percentile(lat, 0.99)
	if ops > 0 {
		st.cpuPerOp = cpu / float64(ops)
	}
	return st
}

// latenciesMs returns the successful ops' wall latencies, ascending.
func latenciesMs(samples []opSample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.failed {
			out = append(out, s.ms())
		}
	}
	sort.Float64s(out)
	return out
}

// loop describes one closed-loop measurement: clients goroutines each issue
// the next op as soon as their previous one returned.
type loop struct {
	clients int
	items   int
	firstOp int
	op      func(client, i int) error
	// Either a wall-clock length, cut into slices of sliceLen, or exactly
	// fixedOps ops in one slice (traced count runs, so that counts do not
	// depend on machine speed).
	length   time.Duration
	fixedOps int
}

func cpuTimeMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// run executes the loop. A collection is forced before each slice so that no
// slice inherits the previous one's garbage.
func (l loop) run() *window {
	w := &window{}
	next := l.firstOp
	slices := int(math.Ceil(float64(l.length) / float64(sliceLen)))
	sliceDur := sliceLen
	if l.fixedOps > 0 || slices <= 1 {
		slices, sliceDur = 1, l.length
	}
	var errMu sync.Mutex
	late := make([][]float64, l.clients)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for s := 0; s < slices; s++ {
		if s > 0 {
			runtime.GC()
		}
		perClient := make([][]opSample, l.clients)
		for c := range perClient {
			perClient[c] = make([]opSample, 0, 1<<10)
		}
		cpu0 := cpuTimeMs()
		begin := time.Now()
		deadline := begin.Add(sliceDur)
		var wg sync.WaitGroup
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var prevEnd time.Time
				for k := 0; ; k++ {
					if l.fixedOps > 0 && k*l.clients+c >= l.fixedOps {
						return
					}
					start := time.Now()
					if l.fixedOps == 0 && !start.Before(deadline) {
						return
					}
					if !prevEnd.IsZero() {
						late[c] = append(late[c], msBetween(prevEnd, start))
					}
					i := next + k*l.clients + c
					err := l.op(c, i)
					prevEnd = time.Now()
					perClient[c] = append(perClient[c], opSample{c, i, start, prevEnd, err != nil})
					if err != nil {
						errMu.Lock()
						if w.firstErr == nil {
							w.firstErr = fmt.Errorf("op %d: %w", i, err)
						}
						errMu.Unlock()
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(begin).Seconds()
		st := sliceStat{cpuMs: cpuTimeMs() - cpu0}
		most := 0
		for _, samples := range perClient {
			st.samples = append(st.samples, samples...)
			if len(samples) > most {
				most = len(samples)
			}
		}
		next += most * l.clients
		lat := latenciesMs(st.samples)
		st.Ops, st.P50 = len(st.samples), percentile(lat, 0.50)
		st.Rate = float64(len(lat)*l.items) / elapsed
		if st.Ops > 0 {
			st.CPUPerOp = st.cpuMs / float64(st.Ops)
		}
		w.slices = append(w.slices, st)
		w.failed += st.Ops - len(lat)
	}
	runtime.ReadMemStats(&ms1)
	w.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	for c := range late {
		w.lateness = append(w.lateness, late[c]...)
	}
	return w
}

// lastOp returns one past the highest op index the window used.
func (w *window) lastOp(first int) int {
	last := first
	for _, s := range w.samples() {
		if s.index+1 > last {
			last = s.index + 1
		}
	}
	return last
}
