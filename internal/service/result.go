package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/arch"
	"repro/internal/dfg"
	"repro/internal/obs"
	"repro/internal/tempart"
)

// SolveRequest is the wire form of a solve request, shared by
// POST /v1/solve, /v1/jobs, and each element of /v1/batch.
type SolveRequest struct {
	// Graph is a task graph in the dfg wire schema (the same JSON that
	// cmd/tgen emits and cmd/sparcs -graph consumes).
	Graph json.RawMessage `json:"graph"`
	// Board selects an architecture preset (default "paper").
	Board string `json:"board,omitempty"`
	// Engine selects the backend (default "ilp").
	Engine string `json:"engine,omitempty"`

	Workers            int  `json:"workers,omitempty"`
	SpeculateN         int  `json:"speculate_n,omitempty"`
	MaxPartitions      int  `json:"max_partitions,omitempty"`
	PathCap            int  `json:"path_cap,omitempty"`
	MaxNodes           int  `json:"max_nodes,omitempty"`
	NoSymmetryBreaking bool `json:"no_symmetry_breaking,omitempty"`
	NoCache            bool `json:"no_cache,omitempty"`

	// DeadlineMS bounds the solve's wall-clock time in milliseconds
	// (0 = none). When the deadline expires mid-search the service does
	// not error: it returns the best incumbent found so far (Result.Partial
	// with a reported gap), or the greedy fallback when the search produced
	// no incumbent at all. Deadline requests never share the singleflight
	// and partial results never touch the cache; DeadlineMS is excluded
	// from the cache key because any result it stores is complete.
	DeadlineMS int `json:"deadline_ms,omitempty"`

	// Trace returns the solve's phase timeline, counters, and sampled
	// search progression in Result.Trace. A traced request is never
	// served from (or stored in) the cache and is excluded from the
	// cache key.
	Trace bool `json:"trace,omitempty"`

	// Cutting-plane budgets (0 = engine defaults). CutRoundsRoot and
	// CutRoundsNode bound separation rounds per node at the root and
	// below; MaxCuts bounds the shared cut pool before compaction. They
	// shape the search (and with pathological values its node counts), so
	// they are part of the solve-cache key.
	CutRoundsRoot int `json:"cut_rounds_root,omitempty"`
	CutRoundsNode int `json:"cut_rounds_node,omitempty"`
	MaxCuts       int `json:"max_cuts,omitempty"`

	// Pricing selects the dual simplex pricing rule: "" or "devex" (the
	// default, approximate reference weights) or "steepest-edge" (exact
	// dual steepest edge — one extra FTRAN per dual pivot buys exact row
	// weights and usually fewer pivots on drift-prone models). The optimum
	// is the same either way, but the pivot trajectory — and with it node
	// counts under MaxNodes limits — can differ, so it is part of the
	// solve-cache key.
	Pricing string `json:"pricing,omitempty"`

	// Formulation selects the ILP backend's model: "" or "rows" (the
	// assignment-variable row model) or "patterns" (branch-and-price over
	// partition-pattern columns — falls back to rows when the instance
	// carries inter-partition data the pattern master cannot price). The
	// optimum is the same either way, but the search shape and stats
	// differ, so it is part of the solve-cache key.
	Formulation string `json:"formulation,omitempty"`
}

// Parse validates the wire request into a Request.
func (sr *SolveRequest) Parse() (*Request, error) {
	if len(sr.Graph) == 0 {
		return nil, fmt.Errorf("service: request has no graph")
	}
	g, err := dfg.Decode(sr.Graph)
	if err != nil {
		return nil, fmt.Errorf("service: bad graph: %w", err)
	}
	boardName := sr.Board
	if boardName == "" {
		boardName = "paper"
	}
	board, err := arch.BoardByName(boardName)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	engine := sr.Engine
	if engine == "" {
		engine = "ilp"
	}
	if _, err := LookupBackend(engine); err != nil {
		return nil, err
	}
	if sr.Workers < 0 || sr.SpeculateN < 0 || sr.MaxPartitions < 0 ||
		sr.PathCap < 0 || sr.MaxNodes < 0 ||
		sr.CutRoundsRoot < 0 || sr.CutRoundsNode < 0 || sr.MaxCuts < 0 ||
		sr.DeadlineMS < 0 {
		return nil, fmt.Errorf("service: negative solver knob")
	}
	switch sr.Pricing {
	case "", "devex", "steepest-edge":
	default:
		return nil, fmt.Errorf("service: unknown pricing %q (have: devex, steepest-edge)", sr.Pricing)
	}
	switch sr.Formulation {
	case "", tempart.FormulationRows, tempart.FormulationPatterns:
	default:
		return nil, fmt.Errorf("service: unknown formulation %q (have: rows, patterns)", sr.Formulation)
	}
	return &Request{
		Graph: g,
		Board: board,
		// Report the resolved board name (not the preset alias) so the
		// service payload matches cmd/sparcs -o json exactly.
		BoardName:          board.Name,
		Engine:             engine,
		Workers:            sr.Workers,
		SpeculateN:         sr.SpeculateN,
		MaxPartitions:      sr.MaxPartitions,
		PathCap:            sr.PathCap,
		MaxNodes:           sr.MaxNodes,
		CutRoundsRoot:      sr.CutRoundsRoot,
		CutRoundsNode:      sr.CutRoundsNode,
		MaxCuts:            sr.MaxCuts,
		Pricing:            sr.Pricing,
		Formulation:        sr.Formulation,
		NoSymmetryBreaking: sr.NoSymmetryBreaking,
		NoCache:            sr.NoCache,
		Trace:              sr.Trace,
		DeadlineMS:         sr.DeadlineMS,
	}, nil
}

// PartitionResult describes one temporal partition in a Result.
type PartitionResult struct {
	Index   int      `json:"index"` // 0-based execution order
	Tasks   []string `json:"tasks"`
	CLBs    int      `json:"clbs"`
	DelayNS float64  `json:"delay_ns"`
}

// Result is the machine-readable solve payload. cmd/sparcs emits exactly
// this struct under `-o json`, so CLI and service clients parse one schema.
type Result struct {
	Graph      string            `json:"graph"`
	Engine     string            `json:"engine"`
	Board      string            `json:"board"`
	N          int               `json:"n"`
	Optimal    bool              `json:"optimal"`
	LatencyNS  float64           `json:"latency_ns"`

	// Anytime fields (deadline_ms requests). Partial marks a result whose
	// proof was cut short by the deadline: the assignment is feasible but
	// possibly suboptimal, with the search's proven lower bound and gap
	// attached. Fallback additionally marks a result produced by the greedy
	// list backend because the ILP had no incumbent at the deadline.
	// BoundTrusted mirrors the solver's own attestation of the bound.
	Partial        bool    `json:"partial,omitempty"`
	Fallback       bool    `json:"fallback,omitempty"`
	LatencyBoundNS float64 `json:"latency_bound_ns,omitempty"`
	GapNS          float64 `json:"gap_ns,omitempty"`
	BoundTrusted   bool    `json:"bound_trusted,omitempty"`

	Partitions []PartitionResult `json:"partitions"`
	// Assign maps task name -> 0-based partition.
	Assign map[string]int `json:"assign,omitempty"`

	// Solver statistics (zero for pure cache hits). PrunedCombinatorial and
	// LPSolvesSkipped report how much of the branch-and-bound tree the
	// presolve fathomed without running the simplex; CutsAdded and
	// SeparationRounds how much the cutting-plane engine grew the node LPs
	// instead of branching; LPRefactorizations and LPBoundFlips how the
	// simplex kernel spent the iterations (basis reinversions the
	// Forrest–Tomlin update path could not avoid, and dual long-step bound
	// flips that absorbed infeasibility without a pivot).
	// LPSparseFTRANs/LPSparseBTRANs count basis solves the hyper-sparse
	// kernel completed on the symbolic-reachability path, LPDenseFallbacks
	// the ones that exceeded the density gate and fell back to the dense
	// O(m) loops; Pricing names the dual pricing rule the engine ran with.
	Nodes               int     `json:"nodes,omitempty"`
	PrunedCombinatorial int     `json:"nodes_pruned_combinatorial,omitempty"`
	LPSolvesSkipped     int     `json:"lp_solves_skipped,omitempty"`
	CutsAdded           int     `json:"cuts_added,omitempty"`
	SeparationRounds    int     `json:"separation_rounds,omitempty"`
	ConflictCuts        int     `json:"conflict_cuts,omitempty"`
	CGCuts              int     `json:"cg_cuts,omitempty"`
	DualBoundFathoms    int     `json:"dual_bound_fathoms,omitempty"`
	LPIterations        int     `json:"lp_iterations,omitempty"`
	LPRefactorizations  int     `json:"lp_refactorizations,omitempty"`
	LPBoundFlips        int     `json:"lp_bound_flips,omitempty"`
	LPSparseFTRANs      int     `json:"lp_sparse_ftrans,omitempty"`
	LPSparseBTRANs      int     `json:"lp_sparse_btrans,omitempty"`
	LPDenseFallbacks    int     `json:"lp_dense_fallbacks,omitempty"`
	Pricing             string  `json:"pricing,omitempty"`
	// Formulation names the ILP model the solve actually ran ("rows" or
	// "patterns" — the latter may fall back to rows when inapplicable);
	// ColumnsGenerated and PricingRounds report the branch-and-price
	// engine's column-generation effort (zero under the row model).
	Formulation      string  `json:"formulation,omitempty"`
	ColumnsGenerated int     `json:"columns_generated,omitempty"`
	PricingRounds    int     `json:"pricing_rounds,omitempty"`
	SolveMS          float64 `json:"solve_ms"`

	// Cache reports how the service produced the result: "miss" (fresh
	// solve), "hit" (memo cache), "shared" (deduplicated onto another
	// in-flight identical solve), or "" for direct CLI runs.
	Cache string `json:"cache,omitempty"`

	// Trace is the solve's phase timeline (trace=true requests only):
	// spans, counters, incumbent improvements, and sampled node events.
	Trace *obs.Trace `json:"trace,omitempty"`
}

// NewResult assembles the shared payload from a partitioning.
func NewResult(g *dfg.Graph, boardName, engine string, p *tempart.Partitioning) *Result {
	r := &Result{
		Graph:               g.Name,
		Engine:              engine,
		Board:               boardName,
		N:                   p.N,
		Optimal:             p.Optimal,
		LatencyNS:           p.Latency,
		Partial:             p.Partial,
		Fallback:            p.Fallback,
		LatencyBoundNS:      p.LatencyBound,
		GapNS:               p.Gap,
		BoundTrusted:        p.BoundTrusted,
		Nodes:               p.Stats.Nodes,
		PrunedCombinatorial: p.Stats.PrunedCombinatorial,
		LPSolvesSkipped:     p.Stats.LPSolvesSkipped,
		CutsAdded:           p.Stats.CutsAdded,
		SeparationRounds:    p.Stats.SeparationRounds,
		ConflictCuts:        p.Stats.ConflictCuts,
		CGCuts:              p.Stats.CGCuts,
		DualBoundFathoms:    p.Stats.DualBoundFathoms,
		LPIterations:        p.Stats.LPIterations,
		LPRefactorizations:  p.Stats.Solver.Refactorizations,
		LPBoundFlips:        p.Stats.Solver.BoundFlips,
		LPSparseFTRANs:      p.Stats.Solver.SparseFTRANs,
		LPSparseBTRANs:      p.Stats.Solver.SparseBTRANs,
		LPDenseFallbacks:    p.Stats.Solver.DenseFallbacks,
		Pricing:             p.Stats.Pricing,
		Formulation:         p.Stats.Formulation,
		ColumnsGenerated:    p.Stats.ColumnsGenerated,
		PricingRounds:       p.Stats.PricingRounds,
	}
	if p.N == 0 {
		return r
	}
	r.Assign = make(map[string]int, g.NumTasks())
	r.Partitions = make([]PartitionResult, p.N)
	for i := range r.Partitions {
		r.Partitions[i].Index = i
		if i < len(p.Delays) {
			r.Partitions[i].DelayNS = p.Delays[i]
		}
	}
	for t := 0; t < g.NumTasks(); t++ {
		task := g.Task(t)
		pi := p.Assign[t]
		r.Assign[task.Name] = pi
		r.Partitions[pi].Tasks = append(r.Partitions[pi].Tasks, task.Name)
		r.Partitions[pi].CLBs += task.Resources
	}
	return r
}
