package tempart

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// pack2638Sizes are the CLB demands of the pack2638 portfolio instance:
// 12 items of 38 and 12 of 26 on a 100-CLB board. Area and cardinality
// both admit 8 bins; the optimum is 9 ((38,38) pairs plus (38,26,26)
// triples).
func pack2638Sizes() []int {
	items := make([]int, 0, 24)
	for i := 0; i < 12; i++ {
		items = append(items, 38, 26)
	}
	return items
}

// TestPackingFeasibleMatchesExhaustive is the exactness property of the
// relax loop's packing pre-check: on random multisets of at most ten items
// with repeated and zero sizes, under every bin count from 1 to n, it must
// agree with the budget-free exhaustive search. A false where a packing
// exists would make the relax loop skip a feasible partition count; a
// true where none exists wastes a model solve.
func TestPackingFeasibleMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var outcomes [2]int // infeasible, feasible
	for trial := 0; trial < 20000; trial++ {
		cap := 10 + rng.Intn(90)
		n := 1 + rng.Intn(10)
		// A small size palette forces repeats, the case the count-vector
		// state and its memo exist for.
		palette := make([]int, 1+rng.Intn(4))
		for i := range palette {
			palette[i] = rng.Intn(cap + 1)
		}
		items := make([]int, n)
		for i := range items {
			if rng.Intn(6) == 0 {
				items[i] = 1 + rng.Intn(cap)
			} else {
				items[i] = palette[rng.Intn(len(palette))]
			}
		}
		for bins := 1; bins <= n; bins++ {
			want := packingFeasibleExact(items, cap, bins)
			if got := packingFeasible(items, cap, bins); got != want {
				t.Fatalf("trial %d: packingFeasible(%v, cap %d, %d bins) = %v, exhaustive search says %v",
					trial, items, cap, bins, got, want)
			}
			if want {
				outcomes[1]++
			} else {
				outcomes[0]++
			}
		}
	}
	if outcomes[0] < outcomes[1]/10 || outcomes[1] < outcomes[0]/10 {
		t.Fatalf("generator is lopsided (%d infeasible, %d feasible): the property tests little", outcomes[0], outcomes[1])
	}
	t.Logf("%d infeasible and %d feasible cases agree", outcomes[0], outcomes[1])
}

// TestPackingFeasibleMatchesPatternDP extends the exactness property to
// multisets too large for the exhaustive search: up to 24 items drawn
// from at most three sizes, checked against the minimum bin count of an
// independent dynamic program over count vectors (a bin is any count
// vector that fits; min over bins of 1 + the rest). Longer inputs reach
// the same count vector down many branches, so they exercise the
// refutation memo.
func TestPackingFeasibleMatchesPatternDP(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	for trial := 0; trial < 300; trial++ {
		cap := 20 + rng.Intn(80)
		size := make([]int, 1+rng.Intn(3))
		for i := range size {
			size[i] = 1 + rng.Intn(cap)
		}
		var items []int
		count := make([]int, len(size))
		for n := 1 + rng.Intn(24); n > 0; n-- {
			i := rng.Intn(len(size))
			items = append(items, size[i])
			count[i]++
		}
		opt := minBinsByPatterns(size, count, cap)
		for bins := 1; bins <= len(items); bins++ {
			if got := packingFeasible(items, cap, bins); got != (bins >= opt) {
				t.Fatalf("trial %d: packingFeasible(%v, cap %d, %d bins) = %v, but the minimum is %d bins",
					trial, items, cap, bins, got, opt)
			}
		}
	}
}

// minBinsByPatterns is the minimum bin count for count[i] items of
// size[i], by memoized recursion over the remaining count vectors.
func minBinsByPatterns(size, count []int, cap int) int {
	var patterns [][]int // every nonzero count vector that fits one bin
	var gen func(i, room int, cur []int)
	gen = func(i, room int, cur []int) {
		if i == len(size) {
			for _, c := range cur {
				if c > 0 {
					patterns = append(patterns, append([]int(nil), cur...))
					return
				}
			}
			return
		}
		for x := 0; x <= count[i] && x*size[i] <= room; x++ {
			gen(i+1, room-x*size[i], append(cur, x))
		}
	}
	gen(0, cap, nil)
	memo := map[[3]int]int{}
	var best func(rest [3]int) int
	best = func(rest [3]int) int {
		if rest == ([3]int{}) {
			return 0
		}
		if v, ok := memo[rest]; ok {
			return v
		}
		v := math.MaxInt
		for _, p := range patterns {
			next, fits := rest, true
			for i, c := range p {
				next[i] -= c
				fits = fits && next[i] >= 0
			}
			if fits {
				v = min(v, 1+best(next))
			}
		}
		memo[rest] = v
		return v
	}
	var all [3]int
	copy(all[:], count)
	return best(all)
}

// TestPackingFeasiblePack2638 pins the instance the bin-completion search
// was written for: the pre-check must refute 8 bins and pack 9 well inside
// its node budget, so the N=8 probe never reaches a model solve.
func TestPackingFeasiblePack2638(t *testing.T) {
	items := pack2638Sizes()
	for _, tc := range []struct {
		bins int
		want bool
	}{{8, false}, {9, true}} {
		ok, nodes := packingSearch(items, 100, tc.bins)
		t.Logf("%d bins: feasible=%v in %d search nodes", tc.bins, ok, nodes)
		if ok != tc.want {
			t.Errorf("%d bins: feasible=%v, want %v", tc.bins, ok, tc.want)
		}
		if nodes > packingNodeBudget/100 {
			t.Errorf("%d bins: %d search nodes, want under %d", tc.bins, nodes, packingNodeBudget/100)
		}
	}
}

// TestPackingFeasibleBudgetIsOptimistic pins the contract past the node
// budget: an instance the search cannot decide within it is reported
// feasible (the model decides), never refuted. Forty distinct sizes in
// (cap/4, cap/3] fit at most three to a bin, so they need 14 bins; the
// area admits 12, and refuting 12 bins means walking combinations of
// distinct items no count vector repeats, far past the budget.
func TestPackingFeasibleBudgetIsOptimistic(t *testing.T) {
	const cap = 1000
	items := make([]int, 40)
	area := 0
	for i := range items {
		items[i] = 251 + 2*i
		area += items[i]
	}
	bins := (area + cap - 1) / cap
	if exact := packingNeedDim(items, cap); exact <= bins {
		t.Fatalf("instance drifted: the dual bound %d no longer proves %d bins infeasible", exact, bins)
	}
	ok, nodes := packingSearch(items, cap, bins)
	if nodes <= packingNodeBudget {
		t.Fatalf("decided in %d nodes (feasible=%v); the instance must exhaust the %d-node budget",
			nodes, ok, packingNodeBudget)
	}
	if !ok || !packingFeasible(items, cap, bins) {
		t.Fatal("budget exhausted but reported infeasible; the contract is an optimistic true")
	}
}

// TestPackingPrecheckKeepsProbeStats pins what the relax loop reports on
// the instances the paper and the portfolio are judged by: the winning
// N, the probes rejected without a model, the dual-bound fathoms and the
// latency. The packing pre-check decides which probes reach a model, so
// any change to it that moves one of these numbers changes the work the
// solver does (and possibly its answer).
func TestPackingPrecheckKeepsProbeStats(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio searches are sequential throughput yardsticks; skipped under -short (the race lane)")
	}
	type pin struct {
		n, pruned, fathoms int
		latency            float64
	}
	want := map[string]pin{
		"dct":                     {3, 8, 0, 300001330},
		"fir6":                    {2, 8, 0, 200002360},
		"fir8":                    {2, 8, 0, 200002780},
		"pack12":                  {6, 8, 1, 6000600},
		"pack15":                  {8, 8, 2, 8000800},
		"pack18":                  {9, 8, 2, 9000900},
		"pack2638-patterns":       {9, 5, 0, 9000900},
		"chainblocks102-patterns": {51, 24, 15, 9291},
	}
	check := func(name string, p *Partitioning, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := pin{p.N, p.Stats.NProbesPruned, p.Stats.DualBoundFathoms, p.Latency}
		if got != want[name] {
			t.Errorf("%s: N=%d NProbesPruned=%d DualBoundFathoms=%d latency=%v, want %+v",
				name, got.n, got.pruned, got.fathoms, got.latency, want[name])
		}
		delete(want, name)
	}
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Solve(Input{Graph: dct, Board: arch.PaperXC4044Board()})
	check("dct", p, err)
	for _, e := range loadPortfolio(t) {
		name := entryName(&e)
		if _, ok := want[name]; !ok || !e.Quick {
			continue
		}
		p, err := runEntry(&e)
		check(name, p, err)
	}
	for name := range want {
		t.Errorf("%s: not solved (missing from the portfolio manifest?)", name)
	}
}

// BenchmarkPackingFeasible times the relax loop's packing pre-check on the
// pack2638 sizes: the refutation at 8 bins and the packing at 9, one op
// deciding both.
func BenchmarkPackingFeasible(b *testing.B) {
	items := pack2638Sizes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if packingFeasible(items, 100, 8) || !packingFeasible(items, 100, 9) {
			b.Fatal("pack2638: want 8 bins refuted and 9 packed")
		}
	}
}
