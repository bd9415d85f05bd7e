package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// failKind classifies a request's outcome; kindOK is a checked answer.
type failKind int

const (
	kindOK failKind = iota
	kindMismatch
	kindSearchLimit // HTTP 500 "search limit hit"
	kindPartitionCap
	kindOtherStatus
	kindTimeout
	kindTransport
	numKinds
)

var kindNames = [numKinds]string{"ok", "checker_mismatch", "http500_search_limit",
	"http422_partition_cap", "http_other", "client_timeout", "transport_error"}

type sample struct {
	lat     time.Duration
	done    time.Duration // completion, from the start of the phase
	kind    failKind
	optimal bool
	// partial marks an answer the deadline cut short: its latency is the
	// deadline's, not the CPU's.
	partial bool
	// overheadMS is client latency minus the answer's solve_ms (traced
	// phase, checked answers only).
	overheadMS float64
}

// phase is one timed stretch of closed-loop traffic.
type phase struct {
	samples    []sample
	cpu        []cpuSample
	elapsed    time.Duration
	allocs     uint64
	allocBytes uint64
	cache      service.CacheStats // delta over the phase
	mismatches []string
	// failures names the first failed requests of each client (not
	// checker mismatches, which mismatches explains).
	failures []string
}

// target is a live in-process server plus what the clients need to use it.
type target struct {
	url    string
	client *http.Client
	server *service.Server
	book   *missBook
	tr     *tracer // nil unless this is a traced run
	hs     *http.Server
}

var requestSeq atomic.Int64

// send issues one request and classifies the outcome. The client timeout
// bounds it, so a solve that never returns costs the client exactly that.
func (tg *target) send(wl *workload, o *op, traced bool) (sample, string, error) {
	body, rid := o.body, ""
	var clientSpan, spanStart int64
	if traced {
		rid = fmt.Sprintf("rq%09d", requestSeq.Add(1))
		body = bytes.Replace(body, []byte(reqNamePlaceholder), []byte(rid), 1)
		clientSpan = tg.tr.nextID.Add(1)
		spanStart = tg.tr.now()
	}
	ctx, cancel := context.WithTimeout(context.Background(), wl.clientTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, tg.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return sample{}, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(reqHeader, rid)
		req.Header.Set(spanHeader, strconv.FormatInt(clientSpan, 10))
	}
	t0 := time.Now()
	resp, err := tg.client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s := sample{lat: time.Since(t0)}
	if traced {
		tg.tr.add(span{ID: clientSpan, Name: "client.request", Req: rid, Start: spanStart, End: tg.tr.now()})
	}
	if err != nil {
		if ctx.Err() != nil {
			s.kind = kindTimeout
		} else {
			s.kind = kindTransport
		}
		return s, "", nil
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusInternalServerError && bytes.Contains(raw, []byte("search limit hit")):
		s.kind = kindSearchLimit
		return s, "", nil
	case resp.StatusCode == http.StatusUnprocessableEntity:
		s.kind = kindPartitionCap
		return s, "", nil
	default:
		s.kind = kindOtherStatus
		return s, "", nil
	}
	var a answer
	if err := json.Unmarshal(raw, &a); err != nil {
		s.kind = kindMismatch
		return s, "undecodable answer: " + err.Error(), nil
	}
	want := reqNamePlaceholder
	if traced {
		want = rid
	}
	cerr := o.check.check(&a)
	if cerr == nil && a.Graph != want {
		cerr = fmt.Errorf("answer names graph %q, request sent %q", a.Graph, want)
	}
	switch {
	case cerr != nil:
	case o.once && a.Cache != "miss":
		cerr = fmt.Errorf("never-seen structure answered with cache %q", a.Cache)
	case !o.once:
		cerr = tg.book.observe(o.check.key, &a)
	}
	if cerr != nil {
		s.kind = kindMismatch
		return s, o.check.key + ": " + cerr.Error(), nil
	}
	s.optimal, s.partial = a.Optimal, a.Partial
	if traced {
		s.overheadMS = float64(s.lat)/1e6 - a.SolveMS
		if o.replay {
			if err := tg.tr.replay(rid, clientSpan, body, raw); err != nil {
				return s, "", err
			}
		}
	}
	return s, "", nil
}

// rendezvous lets the two clients of a burst send together.
type rendezvous struct {
	mu      sync.Mutex
	waiting map[int]chan struct{}
}

func (r *rendezvous) meet(id int, stop time.Time, wait time.Duration) {
	r.mu.Lock()
	if ch, ok := r.waiting[id]; ok {
		delete(r.waiting, id)
		r.mu.Unlock()
		close(ch)
		return
	}
	ch := make(chan struct{})
	r.waiting[id] = ch
	r.mu.Unlock()
	if until := time.Until(stop); until < wait {
		wait = until
	}
	if wait <= 0 {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
	}
}

// burstWait bounds how long a burst's first client waits for the second.
const burstWait = 20 * time.Millisecond

// replayEvery: a traced run replays the layer calls on one request in
// this many, which keeps the replay off most of the client's time.
const replayEvery = 4

// run drives the workload's clients in closed loop for d: each client
// sends its next request only after the previous one completed. After d no
// client starts a request; each finishes the one it has in flight, which
// its client timeout bounds.
func (tg *target) run(wl *workload, pl plan, d time.Duration, traced bool, firstK []int) (*phase, error) {
	var before, after runtime.MemStats
	cacheBefore := tg.server.CacheStats()
	runtime.ReadMemStats(&before)
	start := time.Now()
	stop := start.Add(d)
	stopCPU, cpuDone := make(chan struct{}), make(chan []cpuSample, 1)
	go func() { cpuDone <- sampleCPU(start, stopCPU) }()
	rv := &rendezvous{waiting: map[int]chan struct{}{}}
	per := make([][]sample, wl.clients)
	mism := make([][]string, wl.clients)
	fails := make([][]string, wl.clients)
	errs := make([]error, wl.clients)
	var wg sync.WaitGroup
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := firstK[c]; time.Now().Before(stop); k++ {
				o := pl.next(c, k)
				if o == nil {
					break
				}
				if o.burst > 0 {
					rv.meet(o.burst, stop, burstWait)
				}
				oc := *o
				oc.replay = traced && k%replayEvery == 0
				s, why, err := tg.send(wl, &oc, traced)
				if err != nil {
					errs[c] = err
					return
				}
				s.done = time.Since(start)
				per[c] = append(per[c], s)
				if why != "" && len(mism[c]) < 5 {
					mism[c] = append(mism[c], why)
				}
				if s.kind != kindOK && s.kind != kindMismatch && len(fails[c]) < 20 {
					fails[c] = append(fails[c], kindNames[s.kind]+": "+o.check.key)
				}
				firstK[c] = k + 1
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopCPU)
	ph := &phase{elapsed: elapsed, cpu: <-cpuDone}
	runtime.ReadMemStats(&after)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	cacheAfter := tg.server.CacheStats()
	for c := range per {
		ph.samples = append(ph.samples, per[c]...)
		ph.mismatches = append(ph.mismatches, mism[c]...)
		ph.failures = append(ph.failures, fails[c]...)
	}
	ph.allocs = after.Mallocs - before.Mallocs
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.cache = service.CacheStats{
		Hits:           cacheAfter.Hits - cacheBefore.Hits,
		Misses:         cacheAfter.Misses - cacheBefore.Misses,
		Shared:         cacheAfter.Shared - cacheBefore.Shared,
		RemapFallbacks: cacheAfter.RemapFallbacks - cacheBefore.RemapFallbacks,
	}
	return ph, nil
}

// warm solves one request before timing starts and records its answer as
// the structure's fresh-solve outcome.
func (tg *target) warm(wl *workload, o *op) error {
	s, why, err := tg.send(wl, o, false)
	if err != nil {
		return err
	}
	if s.kind != kindOK {
		return fmt.Errorf("warm-up request failed: %s %s", kindNames[s.kind], why)
	}
	return nil
}

func failureLine(counts [numKinds]int) string {
	var b strings.Builder
	for k := kindMismatch; k < numKinds; k++ {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(kindNames[k] + "=" + strconv.Itoa(counts[k]))
	}
	return b.String()
}

// readCPU returns the machine's cumulative CPU time in jiffies from
// /proc/stat: time spent running (user, nice, system, irq, softirq) and
// time the hypervisor stole from a runnable virtual CPU.
func readCPU() (busy, steal uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseUint(f[i+1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}

// procCPU is the CPU time this process has used, user plus system.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSample is readCPU's pair, procCPU and one speed probe's CPU time at
// a moment of a phase.
type cpuSample struct {
	at          time.Duration // from the start of the phase
	busy, steal uint64
	proc, probe time.Duration
}

// sampleCPU reads the machine's (/proc/stat) and the process's CPU time
// and runs the speed probe every 100 ms until stop is closed, and once
// more then. Where /proc/stat cannot be read, busy and steal stay 0.
func sampleCPU(start time.Time, stop <-chan struct{}) []cpuSample {
	// The probe reads its own thread's CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	sp := newSpeedProbe()
	var out []cpuSample
	take := func() {
		busy, steal, _ := readCPU()
		out = append(out, cpuSample{at: time.Since(start), busy: busy, steal: steal, proc: procCPU(), probe: sp.run()})
	}
	take()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			take()
		case <-stop:
			take()
			return out
		}
	}
}

// procCPUBetween is the process CPU time used between from and to,
// interpolated linearly between the samples around each end (0 without
// samples).
func procCPUBetween(cpu []cpuSample, from, to time.Duration) time.Duration {
	return procAt(cpu, to) - procAt(cpu, from)
}

func procAt(cpu []cpuSample, t time.Duration) time.Duration {
	if len(cpu) == 0 {
		return 0
	}
	for i := 1; i < len(cpu); i++ {
		if a, b := &cpu[i-1], &cpu[i]; t <= b.at && b.at > a.at {
			f := float64(max(t-a.at, 0)) / float64(b.at-a.at)
			return a.proc + time.Duration(f*float64(b.proc-a.proc))
		}
	}
	return cpu[len(cpu)-1].proc
}

// stealShare is the share of the CPU time the machine wanted between from
// and to that the hypervisor stole (0 without samples).
func stealShare(cpu []cpuSample, from, to time.Duration) float64 {
	if len(cpu) == 0 {
		return 0
	}
	// a: the last sample at or before from; b: the first at or after to,
	// else the last.
	a, b := &cpu[0], &cpu[len(cpu)-1]
	for i := range cpu {
		if cpu[i].at <= from {
			a = &cpu[i]
		}
		if cpu[i].at >= to {
			b = &cpu[i]
			break
		}
	}
	if b.busy+b.steal <= a.busy+a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.busy+b.steal-a.busy-a.steal)
}
