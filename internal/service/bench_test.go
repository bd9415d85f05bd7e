package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// dctRequestBodies returns k /v1/solve bodies for the DCT 4x4 on the paper
// board, each a renamed copy with tasks and edges re-added in a shuffled
// order: isomorphic requests that reach the cache only through the
// canonical hash and transfer, the shape of a designer re-submitting a
// renamed graph.
func dctRequestBodies(tb testing.TB, k int) [][]byte {
	tb.Helper()
	src, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	bodies := make([][]byte, k)
	for i := range bodies {
		prefix := fmt.Sprintf("v%d_", i)
		g := dfg.New(fmt.Sprintf("dct-%d", i))
		for _, ti := range rng.Perm(src.NumTasks()) {
			task := *src.Task(ti)
			task.Name = prefix + task.Name
			g.MustAddTask(task)
		}
		edges := append([]dfg.Edge(nil), src.Edges()...)
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		for _, e := range edges {
			g.MustAddEdge(prefix+src.Task(e.From).Name, prefix+src.Task(e.To).Name, e.Data)
		}
		body, err := json.Marshal(SolveRequest{Graph: marshalGraph(tb, g), Board: "paper"})
		if err != nil {
			tb.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// serveSolve runs one /v1/solve through the in-process handler.
func serveSolve(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("solve: HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkService_Hit is a whole cache-hit request through the handler:
// decode, canonical hash and order, cache lookup, transfer and DP
// re-verification of the cached DCT assignment, and the JSON answer.
func BenchmarkService_Hit(b *testing.B) {
	bodies := dctRequestBodies(b, 8)
	s := New(Config{Workers: 1})
	defer s.Shutdown()
	h := s.Handler()
	serveSolve(b, h, bodies[0]) // the one miss
	before := s.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveSolve(b, h, bodies[i%len(bodies)])
	}
	b.StopTimer()
	st := s.CacheStats()
	if hits := st.Hits - before.Hits; hits != uint64(b.N) || st.RemapFallbacks != 0 {
		b.Fatalf("%d hits of %d requests, %d remap fallbacks", hits, b.N, st.RemapFallbacks)
	}
}

// BenchmarkService_Miss is a whole cache-miss request through the handler:
// the same path as BenchmarkService_Hit plus the fresh DCT solve and the
// cache store. Each iteration gets a fresh server (outside the timer).
func BenchmarkService_Miss(b *testing.B) {
	bodies := dctRequestBodies(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New(Config{Workers: 1})
		b.StartTimer()
		serveSolve(b, s.Handler(), bodies[i%len(bodies)])
		b.StopTimer()
		if st := s.CacheStats(); st.Misses != 1 {
			b.Fatalf("want one miss, got %+v", st)
		}
		s.Shutdown()
		b.StartTimer()
	}
}

// TestCacheHitAllocs guards the one-pass request front end: a DCT cache
// hit through the handler (one decode, one WL refinement for key and
// canonical order, DP re-verification) stays under an allocation budget.
// The budget sits between that path (about 415) and one that refines
// twice, decodes twice and enumerates paths (about 1100).
func TestCacheHitAllocs(t *testing.T) {
	const budget = 700
	bodies := dctRequestBodies(t, 4)
	s := New(Config{Workers: 1})
	defer s.Shutdown()
	h := s.Handler()
	serveSolve(t, h, bodies[0])
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		serveSolve(t, h, bodies[i%len(bodies)])
		i++
	})
	if st := s.CacheStats(); st.Misses != 1 || st.RemapFallbacks != 0 {
		t.Fatalf("want only hits after the first solve, got %+v", st)
	}
	t.Logf("%.0f allocs per DCT cache hit", allocs)
	if allocs > budget {
		t.Errorf("DCT cache hit costs %.0f allocs, budget %d", allocs, budget)
	}
}
