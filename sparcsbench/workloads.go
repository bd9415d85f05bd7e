package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// workload is one traffic mix: client count, latency limit and the
// request plan. BENCHMARK.json records each one's reason.
type workload struct {
	name    string
	clients int
	// latencyLimit is the answer time a request is expected to meet;
	// clientTimeout, a fixed margin past it, is when the client gives up.
	latencyLimit  time.Duration
	clientTimeout time.Duration
	// cacheSize is the server's memo-cache capacity (a deployment setting).
	cacheSize int
	prepare   func(p *prep) (plan, error)
}

// plan hands each client its k-th request; nil ends that client's run.
type plan interface {
	next(client, k int) *op
}

// prep is what a workload's set-up may use: the seed, the engine name
// requests carry, the shipped structures, and a way to solve a request on
// the live server before timing starts.
type prep struct {
	seed    int64
	engine  string
	shipped *shipped
	warm    func(o *op) error
}

var workloads = map[string]*workload{
	"hot_repeat": {
		name: "hot_repeat", clients: 2,
		latencyLimit: 50 * time.Millisecond, clientTimeout: 2 * time.Second,
		prepare: prepareHot,
	},
	"cold_solve": {
		name: "cold_solve", clients: 1,
		latencyLimit:  coldSolveMix.deadline + coldGrace,
		clientTimeout: coldSolveMix.deadline + coldPatience,
		prepare:       prepareCold,
	},
	"cold_defects": {
		name: "cold_defects", clients: 1,
		latencyLimit:  coldDefectsMix.deadline + coldGrace,
		clientTimeout: coldDefectsMix.deadline + coldPatience,
		prepare:       prepareColdDefects,
	},
	"mixed_churn": {
		name: "mixed_churn", clients: 2,
		latencyLimit: 50 * time.Millisecond, clientTimeout: 2 * time.Second,
		cacheSize: mixedCacheSize,
		prepare:   prepareMixed,
	},
}

// --- hot_repeat: a small pool of shipped structures, solved in set-up ---

const hotCopies = 64

type poolPlan struct {
	ops  [][]*op // per structure, its renamed copies
	rngs []*rand.Rand
}

func (p *poolPlan) next(client, k int) *op {
	rng := p.rngs[client]
	copies := p.ops[rng.Intn(len(p.ops))]
	return copies[rng.Intn(len(copies))]
}

// portfolioGenSeed is the gen_seed of the committed portfolio manifest:
// PortfolioGraphs(portfolioGenSeed) reproduces the shipped pack12.json.
const portfolioGenSeed = 20260729

// hotPool is a fixed set of structures: what the hit path costs depends on
// graph size and path count, so the seed varies only the renamed copies
// and the request order, never the pool.
func hotPool(s *shipped) ([]base, error) {
	pack12, err := portfolioGraph(portfolioGenSeed, "pack12")
	if err != nil {
		return nil, err
	}
	return []base{
		s.dctBase(), s.fir6Base(), s.fir8Base(),
		{id: "pack12", g: pack12, board: "small", pinN: 6},
		{id: "tree8", g: treeGraph(8, 40, 100), board: "small"},
		{id: "chain12", g: chainGraph(12, 40, 100), board: "small"},
		{id: "layered8", g: layeredGraph(8, rand.New(rand.NewSource(1)), 40, 100), board: "small"},
		{id: "layered24p", g: layeredGraph(24, rand.New(rand.NewSource(7)), 40, 100), board: "paper"},
	}, nil
}

func prepareHot(p *prep) (plan, error) {
	rng := rand.New(rand.NewSource(p.seed))
	pool, err := hotPool(p.shipped)
	if err != nil {
		return nil, err
	}
	pl := &poolPlan{rngs: clientRngs(p.seed, 2)}
	for _, b := range pool {
		// Warm the cache with the structure in generator order.
		w, err := newOp(b, b.g, b.id, p.engine, 0)
		if err != nil {
			return nil, err
		}
		if err := p.warm(w); err != nil {
			return nil, fmt.Errorf("warm %s: %w", b.id, err)
		}
		copies := make([]*op, hotCopies)
		for i := range copies {
			if copies[i], err = newOp(b, isoCopy(b.g, rng, ""), b.id, p.engine, 0); err != nil {
				return nil, err
			}
		}
		pl.ops = append(pl.ops, copies)
	}
	return pl, nil
}

func clientRngs(seed int64, n int) []*rand.Rand {
	out := make([]*rand.Rand, n)
	for i := range out {
		out[i] = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
	}
	return out
}

// --- cold_solve: every request a structure not seen earlier in the run ---

// coldPregen requests are generated in set-up, more than a 45 s run of
// cold_solve usually sends (13,500 to 18,100 on the hosts it was built
// on); later ones are generated on demand.
const coldPregen = 16000

// listPlan serves prepared requests in order, then more(k) if set.
type listPlan struct {
	ops  []*op
	more func(k int) *op
}

func (p *listPlan) next(client, k int) *op {
	if k < len(p.ops) {
		return p.ops[k]
	}
	if p.more != nil {
		return p.more(k)
	}
	return nil
}

// A cold request's latency limit adds coldGrace to its deadline for the
// deadline ladder; its client timeout adds coldPatience, generous so that
// only a solve that truly never returns is abandoned (an abandoned solve
// keeps a CPU busy for the rest of the run).
const (
	coldGrace    = 500 * time.Millisecond
	coldPatience = 4500 * time.Millisecond
)

// coldMix is a cold workload's fixed family order, the size ranges its
// tgen-shaped families step through and the deadline_ms its requests carry.
type coldMix struct {
	cycle                    []string
	layeredLo, layeredSpan   int      // layered graphs of n tasks on small
	treeLeavesLo, treeLeaves int      // reduction trees by leaf count on small
	portChains               []string // PortfolioGraphs chains, in turn
	deadline                 time.Duration
}

// coldSolveMix is cold_solve's mix. Sizes step through each family's range
// in a fixed stratified order; the seed draws the costs, the portfolio
// instances and every renaming and task order.
//
// No request of it fails, so the shapes behind known defects are left to
// cold_defects: layered graphs on the small board (some from n=10 up come
// back as HTTP 500 "search limit hit") and reordered reduction trees (some
// never return, from 6 leaves up; from 9 leaves they return optimal: false
// with their LP running past the deadline).
//
// No request of it reaches its deadline either: an answer the deadline
// cuts short takes the deadline's wall time but the host's speed decides
// how far its search got, and on the shared hosts the benchmark was built
// on that speed changed by up to 1.8 times between runs, which moved
// optimal_rate, allocations and CPU per answer with it.
//
// The shares are set for steady percentiles. Cheap misses (chain, pack,
// DCT, FIR) are 80% of the requests, so the median sits inside them;
// pack2638 (about 12 ms) is the next 17.5%, so p90 sits inside its
// cluster; the portfolio chain (20 to 500 ms) is the top 2.5%.
var coldSolveMix = coldMix{
	cycle: []string{
		"chain", "pack", "dct", "pack2638", "fir", "chain", "pack", "dct", "fir", "pack2638",
		"chain", "fir", "pack", "dct", "chain", "fir", "pack2638", "pack", "dct", "chain",
		"fir", "pack2638", "chain", "pack", "dct", "portchain", "fir", "chain", "pack2638", "pack",
		"dct", "chain", "fir", "chain", "pack2638", "chain", "pack", "dct", "fir", "pack2638",
	},
	portChains: []string{"chain9"},
	deadline:   2 * time.Second,
}

// coldDefectsMix holds only the shapes behind the known defects: layered
// graphs of 10 to 21 tasks on the small board (some HTTP 500 "search limit
// hit", more of them the larger n) and reordered reduction trees of 5 to
// 12 leaves (from 9 leaves optimal: false after the LP runs past the
// deadline; a few never return and end as client timeouts).
var coldDefectsMix = coldMix{
	cycle:     []string{"layered", "layered", "tree"},
	layeredLo: 10, layeredSpan: 12,
	treeLeavesLo: 5, treeLeaves: 8,
	deadline: 500 * time.Millisecond,
}

// coldOp builds the i-th request of a cold mix from the seed alone.
func coldOp(p *prep, mix *coldMix, i int) (*op, error) {
	rng := rand.New(rand.NewSource(p.seed*1000003 + int64(i)))
	cycle := mix.cycle
	family := cycle[i%len(cycle)]
	// k counts earlier requests of the same family.
	k := 0
	for j, f := range cycle {
		if f != family {
			continue
		}
		k += i / len(cycle)
		if j < i%len(cycle) {
			k++
		}
	}
	// step walks lo..lo+span-1 in a fixed order that spreads consecutive
	// draws (7 is coprime with every span used).
	step := func(lo, span int) int { return lo + (k*7)%span }
	s := p.shipped
	var b base
	switch family {
	case "tree":
		leaves, res, delay := step(mix.treeLeavesLo, mix.treeLeaves), 34+rng.Intn(16), float64(50+rng.Intn(101))
		b = base{id: fmt.Sprintf("tree%d_%d_%g", leaves, res, delay), g: treeGraph(leaves, res, delay), board: "small"}
	case "chain":
		n, res := step(8, 25), 34+rng.Intn(16)
		b = base{id: fmt.Sprintf("chain%d_%d", n, res), g: chainGraph(n, res, 100), board: "small"}
	case "layered":
		n := step(mix.layeredLo, mix.layeredSpan)
		b = base{id: "layered" + strconv.Itoa(n), g: layeredGraph(n, rng, 40, 100), board: "small"}
	case "pack", "portchain":
		names := []string{"pack12", "pack15", "pack18"}
		if family == "portchain" {
			names = mix.portChains
		}
		name := names[k%len(names)]
		g, err := portfolioGraph(rng.Int63(), name)
		if err != nil {
			return nil, err
		}
		b = base{id: name, g: g, board: "small"}
		if name == "pack12" {
			b.pinN = 6
		}
	case "pack2638":
		b = s.pack2638Base()
	case "dct":
		b = s.dctBase()
	case "fir":
		b = s.fir6Base()
		if k%2 == 1 {
			b = s.fir8Base()
		}
	}
	// The tag makes every request a structure never seen before.
	tag := "~c" + strconv.Itoa(i)
	o, err := newOp(b, isoCopy(b.g, rng, tag), b.id+tag, p.engine, int(mix.deadline/time.Millisecond))
	if err != nil {
		return nil, err
	}
	o.once = true
	return o, nil
}

func prepareCold(p *prep) (plan, error) { return prepareColdMix(p, &coldSolveMix) }

func prepareColdDefects(p *prep) (plan, error) { return prepareColdMix(p, &coldDefectsMix) }

func prepareColdMix(p *prep, mix *coldMix) (plan, error) {
	pl := &listPlan{more: func(k int) *op {
		o, err := coldOp(p, mix, k)
		if err != nil {
			panic(err) // generated graphs are acyclic and boards are presets
		}
		return o
	}}
	for i := 0; i < coldPregen; i++ {
		o, err := coldOp(p, mix, i)
		if err != nil {
			return nil, err
		}
		pl.ops = append(pl.ops, o)
	}
	return pl, nil
}

// --- mixed_churn: hits, misses, evictions and singleflight joins ---

const (
	mixedCacheSize  = 32
	mixedWorkingSet = 48
	mixedCopies     = 8
	// Per 10 requests of a client: 7 repeats from the working set, 2
	// never-seen structures, and 1 burst shared with the other client.
	mixedBurstEvery = 10
)

type mixedPlan struct {
	seed    int64
	engine  string
	working [][]*op
	rngs    []*rand.Rand
}

// cheapBase is a paper-board structure whose miss costs about a
// millisecond. Family and size step with k through fixed ranges, so every
// seed sends the same mix of sizes (the hit path's cost grows with graph
// size and path count); the seed draws costs, edges and orderings.
func cheapBase(rng *rand.Rand, id string, k int) base {
	step := (k / 3 * 7) % 9
	switch k % 3 {
	case 0:
		return base{id: id, g: treeGraph(4+step, 20+rng.Intn(40), float64(50+rng.Intn(101))), board: "paper"}
	case 1:
		return base{id: id, g: chainGraph(8+step, 20+rng.Intn(40), float64(50+rng.Intn(101))), board: "paper"}
	default:
		return base{id: id, g: layeredGraph(8+step, rng, 40, 100), board: "paper"}
	}
}

func (p *mixedPlan) next(client, k int) *op {
	rng := p.rngs[client]
	switch {
	case k%mixedBurstEvery == mixedBurstEvery-1:
		// Both clients draw the same structure for a burst.
		burst := k/mixedBurstEvery + 1
		brng := rand.New(rand.NewSource(p.seed*104729 + int64(burst)))
		o := p.fresh(cheapBase(brng, "burst"+strconv.Itoa(burst), burst), rng)
		o.burst = burst
		return o
	case k%mixedBurstEvery >= 7:
		o := p.fresh(cheapBase(rng, fmt.Sprintf("new%d_%d", client, k), k), rng)
		o.once = true
		return o
	}
	copies := p.working[rng.Intn(len(p.working))]
	return copies[rng.Intn(len(copies))]
}

// fresh renders a renamed copy of b tagged with its id, a structure the
// server has not seen.
func (p *mixedPlan) fresh(b base, rng *rand.Rand) *op {
	o, err := newOp(b, isoCopy(b.g, rng, "~"+b.id), b.id, p.engine, 0)
	if err != nil {
		panic(err) // generated graphs are acyclic and boards are presets
	}
	return o
}

func prepareMixed(p *prep) (plan, error) {
	rng := rand.New(rand.NewSource(p.seed))
	pl := &mixedPlan{seed: p.seed, engine: p.engine, rngs: clientRngs(p.seed, 2)}
	for i := 0; i < mixedWorkingSet; i++ {
		id := "ws" + strconv.Itoa(i)
		b := cheapBase(rng, id, i)
		g := isoCopy(b.g, rng, "~"+id)
		w, err := newOp(b, g, id, p.engine, 0)
		if err != nil {
			return nil, err
		}
		if err := p.warm(w); err != nil {
			return nil, fmt.Errorf("warm %s: %w", id, err)
		}
		copies := make([]*op, mixedCopies)
		for c := range copies {
			if copies[c], err = newOp(b, isoCopy(g, rng, ""), id, p.engine, 0); err != nil {
				return nil, err
			}
		}
		pl.working = append(pl.working, copies)
	}
	return pl, nil
}
