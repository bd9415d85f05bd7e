package tempart

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
)

// chainDelayDAG draws a random DAG mixing the shapes the DP must get right:
// isolated tasks, zero-delay tasks, fan-in/fan-out diamonds, and delays
// spread over many magnitudes with non-integral values, so that the
// floating-point sums genuinely round.
func chainDelayDAG(rng *rand.Rand) *dfg.Graph {
	g := dfg.New("chaindelay")
	n := 1 + rng.Intn(14)
	for i := 0; i < n; i++ {
		var d float64
		switch rng.Intn(4) {
		case 0: // zero-delay task
		case 1:
			d = float64(1 + rng.Intn(500))
		default:
			d = rng.Float64() * math.Pow(10, float64(rng.Intn(10)-3))
		}
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("t%d", i), Resources: 1 + rng.Intn(40), Delay: d})
	}
	density := 1 + rng.Intn(4)
	for to := 1; to < n; to++ {
		for from := 0; from < to; from++ {
			if rng.Intn(6) < density {
				_ = g.AddEdgeByID(from, to, 1+rng.Intn(5))
			}
		}
	}
	// Diamonds: a fan-out task feeding a fan-in task over 2-3 middle tasks.
	for k := rng.Intn(3); k > 0; k-- {
		base := g.NumTasks()
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("src%d", base), Delay: rng.Float64() * 100})
		mids := 2 + rng.Intn(2)
		for m := 0; m < mids; m++ {
			g.MustAddTask(dfg.Task{Name: fmt.Sprintf("mid%d_%d", base, m), Delay: rng.Float64() * 100})
		}
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("snk%d", base), Delay: rng.Float64() * 100})
		for m := 0; m < mids; m++ {
			_ = g.AddEdgeByID(base, base+1+m, 1)
			_ = g.AddEdgeByID(base+1+m, base+1+mids, 1)
		}
		if n > 0 && rng.Intn(2) == 0 {
			_ = g.AddEdgeByID(rng.Intn(n), base, 1) // hang it off the body
		}
	}
	// Isolated tasks (both a root and a leaf).
	for k := rng.Intn(3); k > 0; k-- {
		g.MustAddTask(dfg.Task{Name: fmt.Sprintf("iso%d", g.NumTasks()), Delay: rng.Float64() * 1000})
	}
	return g
}

// chainDelayAssigns returns assignments of g onto N partitions: one that
// respects precedence (partition indices non-decreasing along every edge,
// as every feasible temporal partitioning must) and one drawn uniformly,
// which generally violates temporal order.
func chainDelayAssigns(t *testing.T, rng *rand.Rand, g *dfg.Graph, N int) [][]int {
	t.Helper()
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	ordered := make([]int, g.NumTasks())
	p := 0
	for _, v := range order {
		if p < N-1 && rng.Intn(3) == 0 {
			p++
		}
		ordered[v] = p
	}
	for _, v := range order {
		for _, u := range g.Preds(v) {
			ordered[v] = max(ordered[v], ordered[u])
		}
	}
	uniform := make([]int, g.NumTasks())
	for i := range uniform {
		uniform[i] = rng.Intn(N)
	}
	return [][]int{ordered, uniform}
}

// checkChainDelays requires ChainDelays to equal EvaluateDelays over the
// full path enumeration bit for bit.
func checkChainDelays(t *testing.T, name string, g *dfg.Graph, assign []int, N int) {
	t.Helper()
	paths, err := g.Paths(0)
	if err != nil {
		t.Fatal(err)
	}
	want := EvaluateDelays(g, assign, N, paths)
	got, err := ChainDelays(g, assign, N)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d delays, want %d", name, len(got), len(want))
	}
	for p := range want {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("%s: d_%d = %v (%#x), path enumeration gives %v (%#x); assign %v",
				name, p, got[p], math.Float64bits(got[p]), want[p], math.Float64bits(want[p]), assign)
		}
	}
}

// TestChainDelaysMatchesPathEnumeration is the equivalence property behind
// the service's cache-hit verification: the longest-chain DP reproduces the
// enumerating delay model exactly on random DAGs and assignments and on
// the shipped graphs (DCT 4x4, the FIR banks and the rest of the
// portfolio).
func TestChainDelaysMatchesPathEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	for trial := 0; trial < 400; trial++ {
		g := chainDelayDAG(rng)
		N := 1 + rng.Intn(4)
		for k, a := range chainDelayAssigns(t, rng, g, N) {
			checkChainDelays(t, fmt.Sprintf("random trial %d assign %d", trial, k), g, a, N)
		}
	}

	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadPortfolioManifest(filepath.Join("testdata", "portfolio"))
	if err != nil {
		t.Fatal(err)
	}
	shipped := append([]*dfg.Graph{dct}, PortfolioGraphs(m.GenSeed)...)
	for _, g := range shipped {
		for _, N := range []int{1, 2, 3, 5} {
			for trial := 0; trial < 5; trial++ {
				for k, a := range chainDelayAssigns(t, rng, g, N) {
					checkChainDelays(t, fmt.Sprintf("%s N=%d trial %d assign %d", g.Name, N, trial, k), g, a, N)
				}
			}
		}
	}
}

// TestChainDelaysErrors pins the two inputs ChainDelays refuses.
func TestChainDelaysErrors(t *testing.T) {
	g := dfg.New("g")
	g.MustAddTask(dfg.Task{Name: "a", Delay: 1})
	if _, err := ChainDelays(g, []int{0, 0}, 1); err == nil {
		t.Error("assignment longer than the graph accepted")
	}
	if d, err := ChainDelays(dfg.New("empty"), nil, 0); err != nil || len(d) != 0 {
		t.Errorf("empty graph: %v, %v", d, err)
	}
}
