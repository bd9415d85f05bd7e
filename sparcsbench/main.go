// Command sparcsbench is the request-level benchmark of the partitioning
// service. One process runs service.New(...).Handler() on a loopback
// listener, drives seeded closed-loop traffic at it from at most two client
// goroutines, checks every answer with its own checker, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1) as one JSON object on the last line of standard output.
//
// Run it through run.sh, which builds it from the surrounding source tree:
//
//	bash sparcsbench/run.sh --workload cold_solve --seed 3 --seconds 30 --trace 0
//
// The process never waits on an in-flight solve: every request has a client
// timeout, and the process exits without draining the server, so a solve
// that never returns cannot hold it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// spanDir receives the span file of each traced run.
var spanDir = filepath.Join(".bench_build", "spans")

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("sparcsbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: hot_repeat, cold_solve, cold_defects or mixed_churn")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		return o, fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparcsbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparcsbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparcsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	// Exit without Shutdown or an HTTP drain: either would wait on a
	// solve that may never return.
	os.Exit(0)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRounds: set-up runs this many times and setup_s is their median;
// the last round's server carries the timed traffic.
const setupRounds = 9

var registerTraced sync.Once

// run executes one benchmark run and returns its result; info lines go to
// out. It returns while solves may still be running on the server.
func run(o options, out io.Writer) (*result, error) {
	wl := workloads[o.workload]
	engine := "ilp"
	var tr *tracer
	if o.trace {
		tr = newTracer()
		inner, err := service.LookupBackend("ilp")
		if err != nil {
			return nil, err
		}
		registerTraced.Do(func() { service.RegisterBackend(tracedBackend{inner: inner}) })
		activeTracer.Store(tr)
		engine = tracedEngine
	}
	var tg *target
	var pl plan
	setups := make([]float64, 0, setupRounds)
	setupStart := time.Now()
	stopCPU, cpuDone := make(chan struct{}), make(chan []cpuSample, 1)
	go func() { cpuDone <- sampleCPU(setupStart, stopCPU) }()
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		next, nextPlan, err := setup(wl, o.seed, engine, tr)
		if err != nil {
			close(stopCPU)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if tg != nil {
			tg.close()
		}
		tg, pl = next, nextPlan
	}
	close(stopCPU)
	// Set-up is CPU-bound: setup_s is scaled to the reference CPU speed.
	setupSlow := slowness(<-cpuDone, 0, time.Since(setupStart))
	setupS := median(setups) / setupSlow
	fmt.Fprintf(out, "unscaled: setup_s=%.6f s (host slowness %.4f)\n", median(setups), setupSlow)

	firstK := make([]int, wl.clients)
	d := time.Duration(o.seconds) * time.Second
	res := &result{}
	var phases []*phase
	if !o.trace {
		ph, err := tg.run(wl, pl, d, false, firstK)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ph)
		res.Metrics = endToEnd(wl, ph, setupS, out)
	} else {
		// Half the time untraced, half traced, on the same server and
		// schedule; the CPU-time throughput difference is the tracing overhead.
		plain, err := tg.run(wl, pl, d/2, false, firstK)
		if err != nil {
			return nil, err
		}
		tr.on.Store(true)
		traced, err := tg.run(wl, pl, d-d/2, true, firstK)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		phases = append(phases, plain, traced)
		res.Metrics = perLayer(plain, traced, tr)
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %s\n", path)
	}
	var counts [numKinds]int
	for _, ph := range phases {
		for _, s := range ph.samples {
			counts[s.kind]++
		}
		res.Attempted += len(ph.samples)
		for _, m := range ph.mismatches {
			fmt.Fprintf(out, "mismatch: %s\n", m)
		}
		for _, f := range ph.failures {
			fmt.Fprintf(out, "failed: %s\n", f)
		}
	}
	if !o.trace {
		phases = nil // the samples are not part of the live heap
		res.Metrics["heap_live_mb"] = metric{liveHeapMB(), "MB"}
		runtime.KeepAlive(tg.server) // the server's state is
	}
	res.Failed = res.Attempted - counts[kindOK]
	res.Correct = counts[kindMismatch] == 0 && res.Attempted > 0
	fmt.Fprintf(out, "workload=%s seed=%d clients=%d latency_limit_ms=%d client_timeout_ms=%d attempted=%d\n",
		wl.name, o.seed, wl.clients, wl.latencyLimit.Milliseconds(), wl.clientTimeout.Milliseconds(), res.Attempted)
	fmt.Fprintf(out, "fail_rate=%.6f ratio failures: %s\n", ratio(res.Failed, res.Attempted), failureLine(counts))
	return res, nil
}

// setup builds a server, generates the workload's inputs and warms the
// cache: the work setup_s measures.
func setup(wl *workload, seed int64, engine string, tr *tracer) (*target, plan, error) {
	srv := service.New(service.Config{CacheSize: wl.cacheSize})
	h := srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns when close shuts the listener
	tg := &target{
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		server: srv,
		book:   newMissBook(),
		tr:     tr,
		hs:     hs,
	}
	sh, err := loadShipped()
	if err != nil {
		tg.close()
		return nil, nil, err
	}
	pl, err := wl.prepare(&prep{seed: seed, engine: engine, shipped: sh,
		warm: func(o *op) error { return tg.warm(wl, o) }})
	if err != nil {
		tg.close()
		return nil, nil, err
	}
	return tg, pl, nil
}

// close stops accepting requests and drops open connections without
// waiting for handlers (http.Server.Close does not wait).
func (tg *target) close() {
	_ = tg.hs.Close() // only the listener's close error, irrelevant at teardown
	tg.client.CloseIdleConnections()
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// The timed phase's samples, in completion order, are cut into windows of
// equal count: at least minWindowSamples each, at most maxWindows of
// them. Throughput and latency percentiles are the median over the
// windows, so a few seconds of interference from outside the process
// move them less than they would move whole-run figures.
//
// Throughput is gated as answers per second of this process's CPU time
// (user plus system, getrusage), not per wall second. On the shared
// 2-vCPU hosts this benchmark was built on, CPU steal (/proc/stat) ranged
// from 0 to 35% between runs and a busy neighbour could take a whole CPU:
// one competing busy loop cut hot_repeat's wall throughput by 44% and
// moved its CPU-time throughput by 2%.
//
// The gated throughput and latencies are then scaled to a reference CPU
// speed by the window's slowness (speed.go): CPU-bound latencies are
// divided by it and the throughput multiplied. An answer the deadline cut
// short, and a failure, keep their wall latency, which the deadline or the
// latency limit set. The unscaled figures, wall throughput, slowness and
// steal share are printed beside the metrics.
const (
	maxWindows       = 10
	minWindowSamples = 100
)

// endToEnd derives the user-visible metrics of an untraced phase, all but
// heap_live_mb, which run measures once the samples are dropped.
func endToEnd(wl *workload, ph *phase, setupS float64, out io.Writer) map[string]metric {
	n := len(ph.samples)
	limitMS := float64(wl.latencyLimit) / 1e6
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].done < ph.samples[j].done })
	w := min(maxWindows, max(1, n/minWindowSamples))
	// lat holds wall latencies, ref the same scaled to the reference CPU
	// speed; cpuRate and refRate are answers per CPU second, raw and scaled.
	lat, ref := make([][]float64, w), make([][]float64, w)
	wall, cpuRate, refRate, slow := make([]float64, w), make([]float64, w), make([]float64, w), make([]float64, w)
	var ok, optimal, inTime int
	var from time.Duration
	for i := range lat {
		okIn := 0
		window := ph.samples[i*n/w : (i+1)*n/w]
		if len(window) == 0 {
			continue
		}
		to := window[len(window)-1].done
		k := slowness(ph.cpu, from, to)
		for _, s := range window {
			ms := float64(s.lat) / 1e6
			refMS := ms / k
			if s.kind != kindOK {
				// A failed request counts as missing the latency limit.
				ms = max(ms, limitMS)
				refMS = ms
			} else {
				okIn++
				if s.optimal {
					optimal++
				}
				if ms <= limitMS {
					inTime++
				}
				if s.partial {
					refMS = ms // the deadline set it, not the CPU
				}
			}
			lat[i] = append(lat[i], ms)
			ref[i] = append(ref[i], refMS)
		}
		ok += okIn
		wall[i] = float64(okIn) / max(to-from, time.Millisecond).Seconds()
		cpuRate[i] = float64(okIn) / max(procCPUBetween(ph.cpu, from, to), time.Millisecond).Seconds()
		refRate[i] = cpuRate[i] * k
		slow[i] = k
		from = to
	}
	pct := func(lat [][]float64, q float64) float64 {
		v := make([]float64, w)
		for i := range v {
			v[i] = quantile(lat[i], q)
		}
		return median(v)
	}
	// p99 is printed, not gated: where a window holds 1000 samples (ten
	// beyond p99) its run-to-run spread on a shared host, driven by CPU
	// steal, still exceeded the largest bound the benchmark may set.
	fmt.Fprintf(out, "%d samples in %d windows\n", n, w)
	if n/w >= 1000 {
		fmt.Fprintf(out, "latency_p99_ms=%.4f ms latency_p99_ref_ms=%.4f ms\n", pct(lat, 0.99), pct(ref, 0.99))
	} else {
		fmt.Fprintf(out, "latency_p99_ms not reported: %d samples a window leave fewer than 10 beyond it\n", n/w)
	}
	fmt.Fprintf(out, "deadline_miss_rate=%.6f ratio\n", 1-ratio(inTime, n))
	fmt.Fprintf(out, "unscaled: throughput_rps=%.4f 1/s answers_per_cpu_s=%.4f 1/s latency_p50_ms=%.4f ms latency_p90_ms=%.4f ms\n",
		median(wall), median(cpuRate), pct(lat, 0.5), pct(lat, 0.9))
	fmt.Fprintf(out, "host: slowness=%.4f (probe CPU time over %v) cpu_steal=%.4f ratio\n",
		median(slow), refProbe, stealShare(ph.cpu, 0, ph.elapsed))
	return map[string]metric{
		"setup_s":               {setupS, "s"},
		"answers_per_ref_cpu_s": {median(refRate), "1/s"},
		"latency_p50_ref_ms":    {pct(ref, 0.5), "ms"},
		"latency_p90_ref_ms":    {pct(ref, 0.9), "ms"},
		"success_rate":          {ratio(ok, n), "ratio"},
		"optimal_rate":          {ratio(optimal, n), "ratio"},
		"deadline_met_rate":     {ratio(inTime, n), "ratio"},
		"allocs_per_req":        {float64(ph.allocs) / float64(max(n, 1)), "count"},
		"alloc_bytes_per_req":   {float64(ph.allocBytes) / float64(max(n, 1)), "B"},
	}
}

// liveHeapMB is the heap left after garbage collection. The caller keeps
// the server (cache, flight recorder, scheduler) live across the call; the
// samples and prepared requests are garbage by then.
func liveHeapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// perLayer derives the per-layer metrics of a traced run from its spans,
// the solver counters and the cache counters of the traced phase.
func perLayer(plain, traced *phase, tr *tracer) map[string]metric {
	self := tr.selfTimes()
	meanUS := func(name string) float64 {
		a := self[name]
		if a[1] == 0 {
			return 0
		}
		return a[0] / a[1] / 1e3
	}
	tr.mu.Lock()
	st := tr.solves
	paths, replays := tr.paths, tr.replays
	tr.mu.Unlock()
	perSolveMS := func(name string) float64 {
		if st.solves+st.errors == 0 {
			return 0
		}
		return self[name][0] / 1e6 / float64(st.solves+st.errors)
	}
	perSolve := func(v int64) float64 {
		if st.solves == 0 {
			return 0
		}
		return float64(v) / float64(st.solves)
	}
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var overhead []float64
	okPlain, okTraced := 0, 0
	for _, s := range plain.samples {
		if s.kind == kindOK {
			okPlain++
		}
	}
	for _, s := range traced.samples {
		if s.kind == kindOK {
			okTraced++
			overhead = append(overhead, s.overheadMS)
		}
	}
	thrPlain := float64(okPlain) / max(procCPUBetween(plain.cpu, 0, plain.elapsed), time.Millisecond).Seconds()
	thrTraced := float64(okTraced) / max(procCPUBetween(traced.cpu, 0, traced.elapsed), time.Millisecond).Seconds()
	c := traced.cache
	lookups := int64(c.Hits + c.Misses + c.Shared)
	return map[string]metric{
		"service.parse_us":            {meanUS("service.parse"), "us"},
		"service.cache_key_us":        {meanUS("service.cache_key"), "us"},
		"service.encode_us":           {meanUS("service.encode"), "us"},
		"service.overhead_ms":         {median(overhead), "ms"},
		"service.cache_hit_ratio":     {frac(int64(c.Hits), lookups), "ratio"},
		"service.shared_ratio":        {frac(int64(c.Shared), lookups), "ratio"},
		"service.remap_fallbacks":     {float64(c.RemapFallbacks), "count"},
		"dfg.decode_us":               {meanUS("dfg.decode"), "us"},
		"dfg.structure_hash_us":       {meanUS("dfg.structure_hash"), "us"},
		"dfg.canonical_order_us":      {meanUS("dfg.canonical_order"), "us"},
		"dfg.paths_us":                {meanUS("dfg.paths"), "us"},
		"dfg.paths_count":             {frac(paths, replays), "count"},
		"tempart.presolve_ms":         {perSolveMS("tempart.presolve"), "ms"},
		"tempart.model_build_ms":      {perSolveMS("tempart.model_build"), "ms"},
		"tempart.root_cut_ms":         {perSolveMS("tempart.root_cut"), "ms"},
		"tempart.search_ms":           {perSolveMS("tempart.search"), "ms"},
		"tempart.probes":              {perSolve(st.probes), "count/solve"},
		"tempart.probes_pruned_ratio": {frac(st.probesPruned, st.probes+st.probesPruned), "ratio"},
		"tempart.bound_untrusted":     {perSolve(st.boundUntrusted), "ratio"},
		"ilp.nodes":                   {perSolve(st.nodes), "count/solve"},
		"ilp.lp_solves_skipped_ratio": {frac(st.lpSkipped, st.nodes), "ratio"},
		"ilp.cuts_added":              {perSolve(st.cuts), "count/solve"},
		"ilp.separation_rounds":       {perSolve(st.sepRounds), "count/solve"},
		"ilp.conflict_cuts":           {perSolve(st.conflicts), "count/solve"},
		"ilp.columns_generated":       {perSolve(st.columns), "count/solve"},
		"ilp.pricing_rounds":          {perSolve(st.pricing), "count/solve"},
		"lp.pivots":                   {perSolve(st.pivots), "count/solve"},
		"lp.refactorizations":         {perSolve(st.refactors), "count/solve"},
		"lp.bound_flips":              {perSolve(st.flips), "count/solve"},
		"lp.warm_ratio":               {frac(st.warm, st.lpSolves), "ratio"},
		"lp.sparse_ratio":             {frac(st.sparse, st.sparse+st.dense), "ratio"},
		"listpart.solve_us":           {meanUS("listpart.solve"), "us"},
		"obs.trace_overhead_pct":      {overheadPct(thrPlain, thrTraced), "%"},
		"tempart.solves":              {float64(st.solves + st.errors), "count"},
	}
}

func overheadPct(plain, traced float64) float64 {
	if plain == 0 {
		return 0
	}
	return 100 * (plain - traced) / plain
}
