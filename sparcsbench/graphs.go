package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/hls"
	"repro/internal/jpeg"
	"repro/internal/tempart"
)

// wireGraph is the task-graph wire schema (the JSON cmd/tgen emits and
// sparcsd accepts), owned by the benchmark so that the answer checker never
// depends on the service's own graph code.
type wireGraph struct {
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
	Edges []wireEdge `json:"edges"`
}

type wireTask struct {
	Name      string         `json:"name"`
	Type      string         `json:"type,omitempty"`
	Resources int            `json:"resources"`
	Delay     float64        `json:"delay"`
	ReadEnv   int            `json:"read_env,omitempty"`
	WriteEnv  int            `json:"write_env,omitempty"`
	Extra     map[string]int `json:"extra,omitempty"`
}

type wireEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Data int    `json:"data"`
}

// base is one request structure before renaming: a graph, the board it is
// solved on, the request knobs, and any optimum the repository pins for it.
type base struct {
	id          string
	g           *wireGraph
	board       string
	formulation string
	pinN        int
	pinLatency  float64
}

// The generators below reproduce cmd/tgen's families (which live in a
// main package and cannot be imported) with the same shape rules.

func chainGraph(n, res int, delay float64) *wireGraph {
	g := &wireGraph{Name: "chain"}
	for i := 0; i < n; i++ {
		g.Tasks = append(g.Tasks, wireTask{
			Name: "t" + strconv.Itoa(i), Type: "stage", Resources: res, Delay: delay,
			ReadEnv: b2i(i == 0), WriteEnv: b2i(i == n-1),
		})
		if i > 0 {
			g.Edges = append(g.Edges, wireEdge{From: "t" + strconv.Itoa(i-1), To: "t" + strconv.Itoa(i), Data: 1})
		}
	}
	return g
}

func treeGraph(leaves, res int, delay float64) *wireGraph {
	g := &wireGraph{Name: "tree"}
	level := make([]int, leaves)
	for i := range level {
		level[i] = len(g.Tasks)
		g.Tasks = append(g.Tasks, wireTask{Name: fmt.Sprintf("leaf%d", i), Type: "leaf",
			Resources: res, Delay: delay, ReadEnv: 1})
	}
	for depth := 1; len(level) > 1; depth++ {
		var next []int
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			t := len(g.Tasks)
			g.Tasks = append(g.Tasks, wireTask{Name: fmt.Sprintf("red%d_%d", depth, i/2),
				Type: "reduce", Resources: res, Delay: delay})
			g.Edges = append(g.Edges,
				wireEdge{From: g.Tasks[level[i]].Name, To: g.Tasks[t].Name, Data: 1},
				wireEdge{From: g.Tasks[level[i+1]].Name, To: g.Tasks[t].Name, Data: 1})
			next = append(next, t)
		}
		level = next
	}
	g.Tasks[level[0]].WriteEnv = 1
	return g
}

func layeredGraph(n int, rng *rand.Rand, res int, delay float64) *wireGraph {
	g := &wireGraph{Name: "layered"}
	var prev []string
	for layer, made := 0, 0; made < n; layer++ {
		width := 1 + rng.Intn(4)
		if made+width > n {
			width = n - made
		}
		var cur []string
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("l%d_%d", layer, w)
			g.Tasks = append(g.Tasks, wireTask{
				Name: name, Type: fmt.Sprintf("L%d", layer),
				Resources: res/2 + rng.Intn(res),
				Delay:     delay/2 + float64(rng.Intn(int(delay))),
				ReadEnv:   b2i(layer == 0),
			})
			cur = append(cur, name)
			made++
		}
		for _, c := range cur {
			if len(prev) == 0 {
				continue
			}
			p := prev[rng.Intn(len(prev))]
			g.Edges = append(g.Edges, wireEdge{From: p, To: c, Data: 1 + rng.Intn(4)})
			for _, q := range prev {
				if q != p && rng.Intn(3) == 0 {
					g.Edges = append(g.Edges, wireEdge{From: q, To: c, Data: 1 + rng.Intn(4)})
				}
			}
		}
		prev = cur
	}
	for i := range g.Tasks {
		for _, name := range prev {
			if g.Tasks[i].Name == name {
				g.Tasks[i].WriteEnv = 1
			}
		}
	}
	return g
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// toWire converts a graph built by the repository (DCT, portfolio) into
// the benchmark's own representation through the wire schema.
func toWire(g *dfg.Graph) (*wireGraph, error) {
	raw, err := json.Marshal(g)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", g.Name, err)
	}
	var w wireGraph
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("decode %s: %w", g.Name, err)
	}
	return &w, nil
}

// shipped holds the structures the repository itself ships, with the
// optima it pins for them.
type shipped struct {
	dct, fir6, fir8, pack2638 *wireGraph
}

func loadShipped() (*shipped, error) {
	dct, err := jpeg.BuildDCTGraph(hls.XC4000Library(), hls.Constraints{})
	if err != nil {
		return nil, fmt.Errorf("dct graph: %w", err)
	}
	s := &shipped{}
	if s.dct, err = toWire(dct); err != nil {
		return nil, err
	}
	// The FIR banks and pack2638 draw nothing from the portfolio seed.
	for name, dst := range map[string]**wireGraph{"fir6": &s.fir6, "fir8": &s.fir8, "pack2638": &s.pack2638} {
		if *dst, err = portfolioGraph(0, name); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// portfolioGraph returns the named graph of tempart.PortfolioGraphs(seed).
func portfolioGraph(seed int64, name string) (*wireGraph, error) {
	for _, g := range tempart.PortfolioGraphs(seed) {
		if g.Name == name {
			return toWire(g)
		}
	}
	return nil, fmt.Errorf("portfolio has no %s", name)
}

func (s *shipped) dctBase() base {
	return base{id: "dct", g: s.dct, board: "paper", pinN: 3, pinLatency: 300001330}
}
func (s *shipped) fir6Base() base { return base{id: "fir6", g: s.fir6, board: "paper"} }
func (s *shipped) fir8Base() base { return base{id: "fir8", g: s.fir8, board: "paper", pinN: 2} }
func (s *shipped) pack2638Base() base {
	return base{id: "pack2638", g: s.pack2638, board: "small", formulation: tempart.FormulationPatterns, pinN: 9}
}

// isoCopy returns a renamed, reordered isomorphic copy of g: task names
// are fresh, tasks and edges are shuffled, and tag is appended to every
// task type. A non-empty tag makes the copy a structure the service has
// never seen (types enter the structure hash) while keeping which tasks
// share a type, and with it the solver's symmetry handling, unchanged.
func isoCopy(g *wireGraph, rng *rand.Rand, tag string) *wireGraph {
	n := len(g.Tasks)
	prefix := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
	ranks := rng.Perm(n)
	rename := make(map[string]string, n)
	for i, t := range g.Tasks {
		rename[t.Name] = prefix + strconv.Itoa(ranks[i])
	}
	out := &wireGraph{Name: g.Name, Tasks: make([]wireTask, n), Edges: make([]wireEdge, len(g.Edges))}
	for i, src := range rng.Perm(n) {
		t := g.Tasks[src]
		t.Name = rename[t.Name]
		t.Type += tag
		out.Tasks[i] = t
	}
	for i, src := range rng.Perm(len(g.Edges)) {
		e := g.Edges[src]
		out.Edges[i] = wireEdge{From: rename[e.From], To: rename[e.To], Data: e.Data}
	}
	return out
}

// solveRequest is the wire form of POST /v1/solve as the benchmark sends it.
type solveRequest struct {
	Graph       *wireGraph `json:"graph"`
	Board       string     `json:"board"`
	Engine      string     `json:"engine"`
	Formulation string     `json:"formulation,omitempty"`
	DeadlineMS  int        `json:"deadline_ms,omitempty"`
}

// reqNamePlaceholder is the graph name every request body carries; traced
// runs overwrite its digits with the request id so the id reaches the
// solver backend even through the cache's detached singleflight solve.
const reqNamePlaceholder = "rq000000000"

// op is one prepared request: the body to send and what the checker needs.
type op struct {
	body  []byte
	check *checkSpec
	// burst > 0 makes both clients rendezvous and send this op together.
	burst int
	// replay makes a traced run replay the layer calls on this request.
	replay bool
	// once marks a structure sent only once in a run: its answer must be
	// a fresh solve, and no later answer is compared with it.
	once bool
}

// newOp renders a request for an isomorphic copy of b.
func newOp(b base, copyG *wireGraph, key, engine string, deadlineMS int) (*op, error) {
	board, err := arch.BoardByName(b.board)
	if err != nil {
		return nil, err
	}
	g := *copyG
	g.Name = reqNamePlaceholder
	body, err := json.Marshal(solveRequest{Graph: &g, Board: b.board, Engine: engine,
		Formulation: b.formulation, DeadlineMS: deadlineMS})
	if err != nil {
		return nil, err
	}
	cs, err := newCheckSpec(key, copyG, board, b.pinN, b.pinLatency)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.id, err)
	}
	return &op{body: body, check: cs}, nil
}
