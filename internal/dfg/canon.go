package dfg

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
)

// This file implements canonical structure hashing of task graphs, the key
// ingredient of the solve memoization in internal/service: two graphs that
// differ only in task names and in the order tasks and edges were added
// produce the same hash, so isomorphic requests share one cache entry. The
// scheme is iterative Weisfeiler-Leman color refinement over name-free task
// attributes, with edge data counts folded into the neighborhood signatures
// (cf. the path-signature DAG keys of the nonenumerative k-longest-paths
// literature): each task starts from a hash of its local costs and
// repeatedly absorbs the sorted multiset of (edge data, neighbor signature)
// pairs on both sides until the signature partition stops refining.
//
// One refinement yields both canonical views: Canonical returns the
// structure hash (the cache key's graph part) and the canonical task order
// (the frame a cached assignment is stored in) from a single WL run, so a
// service request refines its graph once. StructureHash and CanonicalOrder
// are views over the same pass. The refinement reuses one SHA-256 digest
// and its scratch buffers across every task and round; the bytes fed to
// the digest are fixed, so hashes and orders are stable across releases
// (testdata/canon_golden.json pins them).
//
// WL refinement cannot distinguish every pair of non-isomorphic graphs in
// theory, but with edge weights and the rich per-task attribute tuple the
// known counterexamples (large regular unlabeled graphs) do not arise in
// task-graph workloads; any collision is caught downstream because cached
// assignments are re-verified against the requesting graph before reuse.

// sigHasher reuses one SHA-256 digest for every signature of a refinement:
// a signature is the first 8 bytes of the digest of msg.
type sigHasher struct {
	h     hash.Hash
	msg   []byte
	sum   [sha256.Size]byte
	kinds []string
}

func (s *sigHasher) put(v uint64) { s.msg = binary.BigEndian.AppendUint64(s.msg, v) }

func (s *sigHasher) puts(v string) {
	s.msg = append(s.msg, v...)
	s.msg = append(s.msg, 0)
}

// sig digests msg and resets it for the next signature.
func (s *sigHasher) sig() uint64 {
	s.h.Reset()
	s.h.Write(s.msg)
	s.msg = s.msg[:0]
	return binary.BigEndian.Uint64(s.h.Sum(s.sum[:0]))
}

// taskSig hashes the name-free local attributes of a task.
func (s *sigHasher) taskSig(t *Task) uint64 {
	s.puts(t.Type)
	s.put(uint64(t.Resources))
	s.put(math.Float64bits(t.Delay))
	s.put(uint64(t.ReadEnv))
	s.put(uint64(t.WriteEnv))
	s.kinds = s.kinds[:0]
	for k := range t.Extra {
		s.kinds = append(s.kinds, k)
	}
	slices.Sort(s.kinds)
	for _, k := range s.kinds {
		s.puts(k)
		s.put(uint64(t.Extra[k]))
	}
	return s.sig()
}

// refineSigs runs WL color refinement and returns the stable per-task
// signatures. Rounds stop when the number of distinct signatures no longer
// grows (or after NumTasks rounds, the refinement diameter bound).
func (g *Graph) refineSigs() []uint64 {
	n := len(g.tasks)
	s := &sigHasher{h: sha256.New()}
	sigs := make([]uint64, n)
	for i, t := range g.tasks {
		sigs[i] = s.taskSig(t)
	}
	// Edge data aligned with pred[i] and succ[i]: AddEdgeByID appends to
	// edges, succ and pred together, so replaying edges in order rebuilds
	// the alignment. One backing array holds both sides of every task.
	flat := make([]uint64, 2*len(g.edges))
	predData := make([][]uint64, n)
	succData := make([][]uint64, n)
	maxDeg, off := 0, 0
	for i := 0; i < n; i++ {
		np, ns := len(g.pred[i]), len(g.succ[i])
		predData[i] = flat[off : off : off+np]
		off += np
		succData[i] = flat[off : off : off+ns]
		off += ns
		maxDeg = max(maxDeg, np, ns)
	}
	for _, e := range g.edges {
		succData[e.From] = append(succData[e.From], uint64(e.Data))
		predData[e.To] = append(predData[e.To], uint64(e.Data))
	}
	set := make(map[uint64]struct{}, n)
	distinct := func(v []uint64) int {
		clear(set)
		for _, x := range v {
			set[x] = struct{}{}
		}
		return len(set)
	}
	pairs := make([][2]uint64, 0, maxDeg)
	prev := distinct(sigs)
	next := make([]uint64, n)
	for round := 0; round < n; round++ {
		for i := range g.tasks {
			s.put(sigs[i])
			for side, nbs := range [2][]int{g.pred[i], g.succ[i]} {
				data := predData[i]
				if side == 1 {
					data = succData[i]
				}
				pairs = pairs[:0]
				for k, nb := range nbs {
					pairs = append(pairs, [2]uint64{data[k], sigs[nb]})
				}
				slices.SortFunc(pairs, func(a, b [2]uint64) int {
					if c := cmp.Compare(a[0], b[0]); c != 0 {
						return c
					}
					return cmp.Compare(a[1], b[1])
				})
				s.put(uint64(len(pairs)))
				for _, p := range pairs {
					s.put(p[0])
					s.put(p[1])
				}
			}
			next[i] = s.sig()
		}
		sigs, next = next, sigs
		if d := distinct(sigs); d == prev {
			break
		} else {
			prev = d
		}
	}
	return sigs
}

// Canonical runs one WL refinement and returns both canonical views of the
// graph: the structure hash (see StructureHash) and the canonical task
// order (see CanonicalOrder). Callers that need both — the service's cache
// path keys a request and transfers its cached assignment — refine once.
func (g *Graph) Canonical() (structure string, order []int) {
	sigs := g.refineSigs()
	return g.structureHash(sigs), g.canonicalOrder(sigs)
}

// StructureHash returns a hex-encoded SHA-256 digest of the graph's
// structure that is invariant under task renaming and under reordering of
// task and edge insertion, and (modulo WL limitations, see above) differs
// for any structural change: task attributes, edge endpoints, or edge data.
// The graph Name is deliberately excluded.
func (g *Graph) StructureHash() string { return g.structureHash(g.refineSigs()) }

func (g *Graph) structureHash(sigs []uint64) string {
	final := slices.Clone(sigs)
	slices.Sort(final)

	type etriple struct{ from, to, data uint64 }
	ets := make([]etriple, 0, len(g.edges))
	for _, e := range g.edges {
		ets = append(ets, etriple{sigs[e.From], sigs[e.To], uint64(e.Data)})
	}
	slices.SortFunc(ets, func(a, b etriple) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.data, b.data)
	})

	msg := make([]byte, 0, 8*(2+len(final)+3*len(ets)))
	put := func(v uint64) { msg = binary.BigEndian.AppendUint64(msg, v) }
	put(uint64(len(g.tasks)))
	put(uint64(len(g.edges)))
	for _, s := range final {
		put(s)
	}
	for _, e := range ets {
		put(e.from)
		put(e.to)
		put(e.data)
	}
	sum := sha256.Sum256(msg)
	return hex.EncodeToString(sum[:])
}

// CanonicalOrder returns a permutation of task indices sorted into a
// canonical position: position i holds the task index that canonically
// comes i-th. The order is derived from the stable WL signatures with
// topological depth as a tie-break, so it is invariant under renaming and
// reordering except between WL-equivalent tasks (which are, for all
// practical task graphs, interchangeable — ties fall back to input order).
// internal/service uses this to transfer a cached partition assignment onto
// an isomorphic request graph; the transfer is always re-verified with
// tempart.CheckFeasible, so a pathological tie can cost a cache re-solve
// but never a wrong answer.
func (g *Graph) CanonicalOrder() []int { return g.canonicalOrder(g.refineSigs()) }

func (g *Graph) canonicalOrder(sigs []uint64) []int {
	n := len(g.tasks)
	depth := make([]int, n)
	if order, err := g.TopoOrder(); err == nil {
		for _, v := range order {
			for _, s := range g.succ[v] {
				if depth[v]+1 > depth[s] {
					depth[s] = depth[v] + 1
				}
			}
		}
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	slices.SortStableFunc(out, func(a, b int) int {
		if c := cmp.Compare(depth[a], depth[b]); c != 0 {
			return c
		}
		return cmp.Compare(sigs[a], sigs[b])
	})
	return out
}
