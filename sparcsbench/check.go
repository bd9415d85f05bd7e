package main

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/arch"
)

// checkSpec is everything the independent answer checker knows about one
// request: the graph as sent (index space, topological order), the board,
// and any optimum the repository pins for the structure.
type checkSpec struct {
	key        string // structure identity: equal keys are isomorphic graphs
	index      map[string]int
	res        []int
	delay      []float64
	edges      [][3]int // from, to, data
	succ       [][]int  // successor task indices
	topo       []int
	board      arch.Board
	pinN       int
	pinLatency float64
}

func newCheckSpec(key string, g *wireGraph, board arch.Board, pinN int, pinLatency float64) (*checkSpec, error) {
	cs := &checkSpec{key: key, index: make(map[string]int, len(g.Tasks)), board: board,
		pinN: pinN, pinLatency: pinLatency}
	for i, t := range g.Tasks {
		cs.index[t.Name] = i
		cs.res = append(cs.res, t.Resources)
		cs.delay = append(cs.delay, t.Delay)
	}
	indeg := make([]int, len(g.Tasks))
	cs.succ = make([][]int, len(g.Tasks))
	for _, e := range g.Edges {
		f, t := cs.index[e.From], cs.index[e.To]
		cs.edges = append(cs.edges, [3]int{f, t, e.Data})
		cs.succ[f] = append(cs.succ[f], t)
		indeg[t]++
	}
	for i, d := range indeg {
		if d == 0 {
			cs.topo = append(cs.topo, i)
		}
	}
	for k := 0; k < len(cs.topo); k++ {
		for _, s := range cs.succ[cs.topo[k]] {
			if indeg[s]--; indeg[s] == 0 {
				cs.topo = append(cs.topo, s)
			}
		}
	}
	if len(cs.topo) != len(g.Tasks) {
		return nil, fmt.Errorf("graph %s has a cycle", key)
	}
	return cs, nil
}

// answer is the subset of the service's Result the checker reads.
type answer struct {
	Graph          string  `json:"graph"`
	N              int     `json:"n"`
	Optimal        bool    `json:"optimal"`
	LatencyNS      float64 `json:"latency_ns"`
	Partial        bool    `json:"partial"`
	LatencyBoundNS float64 `json:"latency_bound_ns"`
	Partitions     []struct {
		Index   int      `json:"index"`
		Tasks   []string `json:"tasks"`
		CLBs    int      `json:"clbs"`
		DelayNS float64  `json:"delay_ns"`
	} `json:"partitions"`
	Assign  map[string]int `json:"assign"`
	SolveMS float64        `json:"solve_ms"`
	Cache   string         `json:"cache"`
}

func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(b)) }

// check validates a 200 answer against the request, recomputing the
// paper's constraints and objective from scratch.
func (cs *checkSpec) check(a *answer) error {
	n := a.N
	if n < 1 || len(a.Partitions) != n {
		return fmt.Errorf("n=%d with %d partitions", n, len(a.Partitions))
	}
	if len(a.Assign) != len(cs.res) {
		return fmt.Errorf("assign has %d tasks, graph has %d", len(a.Assign), len(cs.res))
	}
	part := make([]int, len(cs.res))
	for i := range part {
		part[i] = -1
	}
	for name, p := range a.Assign {
		t, ok := cs.index[name]
		if !ok {
			return fmt.Errorf("assign names unknown task %q", name)
		}
		if p < 0 || p >= n {
			return fmt.Errorf("task %q in partition %d of %d", name, p, n)
		}
		part[t] = p
	}
	// Each task listed exactly once, in the partition assign gives it.
	seen := make([]bool, len(cs.res))
	clbs := make([]int, n)
	for i, pr := range a.Partitions {
		if pr.Index != i {
			return fmt.Errorf("partition %d reports index %d", i, pr.Index)
		}
		for _, name := range pr.Tasks {
			t, ok := cs.index[name]
			if !ok || seen[t] || part[t] != i {
				return fmt.Errorf("partition %d lists task %q inconsistently", i, name)
			}
			seen[t] = true
			clbs[i] += cs.res[t]
		}
		if clbs[i] != pr.CLBs {
			return fmt.Errorf("partition %d reports %d CLBs, tasks sum to %d", i, pr.CLBs, clbs[i])
		}
		if clbs[i] > cs.board.FPGA.CLBs {
			return fmt.Errorf("partition %d uses %d CLBs > %d", i, clbs[i], cs.board.FPGA.CLBs)
		}
	}
	for t, ok := range seen {
		if !ok {
			return fmt.Errorf("task %d in no partition", t)
		}
	}
	// Temporal order: a producer never runs after its consumer.
	for _, e := range cs.edges {
		if part[e[0]] > part[e[1]] {
			return fmt.Errorf("edge %d->%d runs backwards (%d > %d)", e[0], e[1], part[e[0]], part[e[1]])
		}
	}
	// Eq. 3: data crossing each boundary fits the on-board memory.
	for b := 0; b < n-1; b++ {
		mem := 0
		for _, e := range cs.edges {
			if part[e[0]] <= b && part[e[1]] > b {
				mem += e[2]
			}
		}
		if mem > cs.board.Memory.Words {
			return fmt.Errorf("boundary %d stores %d words > %d", b, mem, cs.board.Memory.Words)
		}
	}
	// Latency: one full-device reconfiguration per partition (the boards
	// the workloads use reconfigure the whole device) plus each partition's
	// longest delay chain among its own tasks.
	if cs.board.FPGA.PartialReconfig {
		return fmt.Errorf("board %s: partial reconfiguration is not modelled by the checker", cs.board.Name)
	}
	chain := make([]float64, len(cs.res))
	longest := make([]float64, n)
	for _, t := range cs.topo {
		chain[t] += cs.delay[t]
		if chain[t] > longest[part[t]] {
			longest[part[t]] = chain[t]
		}
		for _, s := range cs.succ[t] {
			if part[s] == part[t] && chain[t] > chain[s] {
				chain[s] = chain[t]
			}
		}
	}
	lat := float64(n) * cs.board.FPGA.ReconfigTime
	for p, d := range longest {
		if !sameFloat(a.Partitions[p].DelayNS, d) {
			return fmt.Errorf("partition %d reports delay %g, longest chain is %g", p, a.Partitions[p].DelayNS, d)
		}
		lat += d
	}
	if !sameFloat(a.LatencyNS, lat) {
		return fmt.Errorf("latency %g, recomputed %g", a.LatencyNS, lat)
	}
	if a.Partial && a.LatencyBoundNS > a.LatencyNS*(1+1e-9) {
		return fmt.Errorf("partial answer bound %g exceeds its latency %g", a.LatencyBoundNS, a.LatencyNS)
	}
	if cs.pinLatency > 0 && a.LatencyNS < cs.pinLatency*(1-1e-9) {
		return fmt.Errorf("latency %g beats the pinned optimum %g", a.LatencyNS, cs.pinLatency)
	}
	if a.Optimal {
		if cs.pinN > 0 && n != cs.pinN {
			return fmt.Errorf("optimal answer has N=%d, pinned optimum N=%d", n, cs.pinN)
		}
		if cs.pinLatency > 0 && !sameFloat(a.LatencyNS, cs.pinLatency) {
			return fmt.Errorf("optimal latency %g, pinned %g", a.LatencyNS, cs.pinLatency)
		}
	}
	return nil
}

// outcome is what an answer claims about its structure; hits and shared
// answers must repeat one that a fresh solve produced.
type outcome struct {
	n       int
	latency float64
	optimal bool
}

// missBook remembers every fresh-solve outcome per structure.
type missBook struct {
	mu  sync.Mutex
	out map[string][]outcome
}

func newMissBook() *missBook { return &missBook{out: map[string][]outcome{}} }

// observe records a miss, or checks that a hit or shared answer equals a
// miss answer of the same structure.
func (m *missBook) observe(key string, a *answer) error {
	o := outcome{n: a.N, latency: a.LatencyNS, optimal: a.Optimal}
	m.mu.Lock()
	defer m.mu.Unlock()
	known := m.out[key]
	if a.Cache == "miss" {
		for _, k := range known {
			if k.n == o.n && sameFloat(k.latency, o.latency) && k.optimal == o.optimal {
				return nil
			}
		}
		m.out[key] = append(known, o)
		return nil
	}
	for _, k := range known {
		if k.n == o.n && sameFloat(k.latency, o.latency) && k.optimal == o.optimal {
			return nil
		}
	}
	if len(known) == 0 {
		// The miss that filled the entry may still be in flight on the
		// other client (a shared answer arrives first); its answer is
		// checked against the same recomputation, so accept and record.
		m.out[key] = append(known, o)
		return nil
	}
	return fmt.Errorf("%s answer N=%d latency=%g optimal=%v matches no fresh solve of its structure",
		a.Cache, o.n, o.latency, o.optimal)
}
