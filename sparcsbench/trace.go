package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfg"
	"repro/internal/listpart"
	"repro/internal/service"
	"repro/internal/tempart"
)

// span is one timed call, recorded by the benchmark's own code at a layer
// boundary. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory, plus the solver counters
// the traced backend reads off each fresh solve.
type tracer struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	handles map[string]int64 // request id -> its service.handle span
	solves  solveTotals
	paths   int64 // paths enumerated by replayed dfg.Paths calls
	replays int64
}

// solveTotals sums the search statistics of every fresh traced solve.
type solveTotals struct {
	solves, errors                                          int64
	probes, probesPruned, boundUntrusted                    int64
	nodes, lpSkipped, cuts, sepRounds, conflicts            int64
	columns, pricing                                        int64
	pivots, refactors, flips, lpSolves, warm, sparse, dense int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), handles: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a closed span, giving it an id unless it has one, and
// returns the id.
func (t *tracer) add(sp span) int64 {
	if sp.ID == 0 {
		sp.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.ID
}

// timed runs f as a child span of parent.
func (t *tracer) timed(name, req string, parent int64, f func()) {
	start := t.now()
	f()
	t.add(span{Parent: parent, Name: name, Req: req, Start: start, End: t.now()})
}

// Traced requests carry their request id and the id of the client span
// that sends them.
const (
	reqHeader  = "X-Bench-Request"
	spanHeader = "X-Bench-Span"
)

// middleware times the service's HTTP handler for traced requests. The
// handle span's id is registered before the handler runs so the traced
// backend can parent its solve spans on it.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(reqHeader)
		if req == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // 0 leaves it a root
		id := t.nextID.Add(1)
		t.mu.Lock()
		t.handles[req] = id
		t.mu.Unlock()
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Parent: parent, Name: "service.handle", Req: req, Start: start, End: t.now()})
	})
}

func (t *tracer) handleOf(req string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handles[req]
}

// tracedEngine is the engine name traced runs send: a backend that calls
// service.LookupBackend("ilp").Solve with the request's TraceSink and turns
// the solver's own obs spans into benchmark spans.
const tracedEngine = "ilp.traced"

type tracedBackend struct {
	inner service.Backend
}

// activeTracer is the tracer of the current traced run; the backend is
// registered once per process, the tracer is per run.
var activeTracer atomic.Pointer[tracer]

func (b tracedBackend) Name() string { return tracedEngine }

func (b tracedBackend) Solve(ctx context.Context, req *service.Request) (*tempart.Partitioning, error) {
	t := activeTracer.Load()
	if t == nil || !t.on.Load() {
		return b.inner.Solve(ctx, req)
	}
	start := t.now()
	p, err := b.inner.Solve(ctx, req)
	end := t.now()
	rid := req.Graph.Name // the client writes its request id there
	root := t.add(span{Parent: t.handleOf(rid), Name: "tempart.solve", Req: rid, Start: start, End: end})
	if tr := req.TraceSink.Trace(); tr != nil {
		// The sink was created just before this call, so its clock starts
		// at (or a few hundred ns before) start.
		type iv struct {
			name       string
			start, end int64
			id         int64
		}
		ivs := make([]iv, 0, len(tr.Spans))
		for _, s := range tr.Spans {
			ivs = append(ivs, iv{name: "tempart." + phaseName(s.Phase), start: start + s.StartNS, end: start + s.StartNS + s.DurNS})
		}
		// Parent each solver span on the tightest span enclosing it.
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].end > ivs[j].end
		})
		for i := range ivs {
			parent := root
			for j := i - 1; j >= 0; j-- {
				if ivs[j].start <= ivs[i].start && ivs[j].end >= ivs[i].end {
					parent = ivs[j].id
					break
				}
			}
			ivs[i].id = t.add(span{Parent: parent, Name: ivs[i].name, Req: rid, Start: ivs[i].start, End: ivs[i].end})
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.solves
	if err != nil || p == nil {
		s.errors++
		return p, err
	}
	st := p.Stats
	s.solves++
	s.probes += int64(st.RelaxSteps)
	s.probesPruned += int64(st.NProbesPruned)
	if !p.Optimal && !p.BoundTrusted {
		s.boundUntrusted++
	}
	s.nodes += int64(st.Nodes)
	s.lpSkipped += int64(st.LPSolvesSkipped)
	s.cuts += int64(st.CutsAdded)
	s.sepRounds += int64(st.SeparationRounds)
	s.conflicts += int64(st.ConflictCuts)
	s.columns += int64(st.ColumnsGenerated)
	s.pricing += int64(st.PricingRounds)
	s.pivots += int64(st.Solver.Pivots)
	s.refactors += int64(st.Solver.Refactorizations)
	s.flips += int64(st.Solver.BoundFlips)
	s.lpSolves += int64(st.Solver.Solves)
	s.warm += int64(st.Solver.WarmSolves)
	s.sparse += int64(st.Solver.SparseFTRANs + st.Solver.SparseBTRANs)
	s.dense += int64(st.Solver.DenseFallbacks)
	return p, nil
}

func phaseName(p string) string {
	switch p {
	case "model-build":
		return "model_build"
	case "root-cut":
		return "root_cut"
	}
	return p
}

// replay times the request path's public layer calls on one request the
// client already sent: the service's decode, parse and cache key, the dfg
// hash, canonical order and path enumeration a cache hit re-runs, the
// encode of the answer, and the greedy list partitioner the deadline
// ladder falls back to. The calls run on the client goroutine after the
// answer arrived, so they never sit inside a measured latency.
func (t *tracer) replay(rid string, parent int64, body, resp []byte) error {
	var sr service.SolveRequest
	var req *service.Request
	var err error
	t.timed("service.parse", rid, parent, func() {
		if err = json.Unmarshal(body, &sr); err == nil {
			req, err = sr.Parse()
		}
	})
	if err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	var g dfg.Graph
	t.timed("dfg.decode", rid, parent, func() { err = json.Unmarshal(sr.Graph, &g) })
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	t.timed("service.cache_key", rid, parent, func() { _ = req.CacheKey() })
	t.timed("dfg.structure_hash", rid, parent, func() { _ = g.StructureHash() })
	t.timed("dfg.canonical_order", rid, parent, func() { _ = g.CanonicalOrder() })
	var paths [][]int
	t.timed("dfg.paths", rid, parent, func() { paths, err = g.Paths(20000) })
	if err != nil {
		return fmt.Errorf("replay paths: %w", err)
	}
	var res service.Result
	if err := json.Unmarshal(resp, &res); err != nil {
		return fmt.Errorf("replay result: %w", err)
	}
	t.timed("service.encode", rid, parent, func() { _, err = json.MarshalIndent(&res, "", "  ") })
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	t.timed("listpart.solve", rid, parent, func() { _, err = listpart.Solve(&g, req.Board, 0) })
	if err != nil {
		return fmt.Errorf("replay listpart: %w", err)
	}
	t.mu.Lock()
	t.paths += int64(len(paths))
	t.replays++
	t.mu.Unlock()
	return nil
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part of it covered by child spans) and the span count.
func (t *tracer) selfTimes() map[string][2]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][2]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		acc := out[s.Name]
		acc[0] += float64(s.End - s.Start - covered)
		acc[1]++
		out[s.Name] = acc
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
