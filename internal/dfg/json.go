package dfg

import (
	"encoding/json"
	"fmt"
)

// jsonGraph is the wire schema used by cmd/sparcs and cmd/tgen.
type jsonGraph struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges []jsonEdge `json:"edges"`
}

type jsonTask struct {
	Name      string         `json:"name"`
	Type      string         `json:"type,omitempty"`
	Resources int            `json:"resources"`
	Delay     float64        `json:"delay"`
	ReadEnv   int            `json:"read_env,omitempty"`
	WriteEnv  int            `json:"write_env,omitempty"`
	Extra     map[string]int `json:"extra,omitempty"`
}

type jsonEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Data int    `json:"data"`
}

// MarshalJSON encodes the graph in the stable wire schema.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.Name}
	for _, t := range g.tasks {
		jg.Tasks = append(jg.Tasks, jsonTask{
			Name: t.Name, Type: t.Type, Resources: t.Resources,
			Delay: t.Delay, ReadEnv: t.ReadEnv, WriteEnv: t.WriteEnv,
			Extra: t.Extra,
		})
	}
	for _, e := range g.edges {
		jg.Edges = append(jg.Edges, jsonEdge{
			From: g.tasks[e.From].Name, To: g.tasks[e.To].Name, Data: e.Data,
		})
	}
	return json.Marshal(jg)
}

// Decode decodes a graph from the wire schema in one pass: a single
// json.Unmarshal into the wire struct, then a graph built with its task,
// edge, adjacency and name-index storage sized from the decoded lengths.
// The input is untrusted (it arrives from files and from the
// internal/service HTTP API), so Decode rejects — with an error naming the
// offending element — duplicate task names, edges whose endpoints name
// unknown tasks, self and duplicate edges, negative costs, and dependency
// cycles. A successfully decoded graph always passes Validate.
func Decode(data []byte) (*Graph, error) {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	nt, ne := len(jg.Tasks), len(jg.Edges)
	g := &Graph{
		Name:  jg.Name,
		tasks: make([]*Task, 0, nt),
		index: make(map[string]int, nt),
		edges: make([]Edge, 0, ne),
		succ:  make([][]int, 0, nt),
		pred:  make([][]int, 0, nt),
	}
	backing := make([]Task, nt)
	for i, jt := range jg.Tasks {
		backing[i] = Task{
			Name: jt.Name, Type: jt.Type, Resources: jt.Resources,
			Delay: jt.Delay, ReadEnv: jt.ReadEnv, WriteEnv: jt.WriteEnv,
			Extra: jt.Extra,
		}
		if _, err := g.addTask(&backing[i]); err != nil {
			return nil, fmt.Errorf("dfg: decode: tasks[%d]: %w", i, err)
		}
	}
	// Carve every task's adjacency lists out of one array sized by the
	// edges' endpoint degrees, so AddEdge appends in place. Edges that will
	// be rejected below only leave spare capacity.
	outDeg := make([]int, 2*nt)
	inDeg := outDeg[nt:]
	for _, je := range jg.Edges {
		fi, okf := g.index[je.From]
		ti, okt := g.index[je.To]
		if okf && okt {
			outDeg[fi]++
			inDeg[ti]++
		}
	}
	adj := make([]int, 0, 2*ne)
	for i := 0; i < nt; i++ {
		at := len(adj)
		g.succ[i] = adj[at : at : at+outDeg[i]]
		adj = adj[:at+outDeg[i]]
		at = len(adj)
		g.pred[i] = adj[at : at : at+inDeg[i]]
		adj = adj[:at+inDeg[i]]
	}
	for i, je := range jg.Edges {
		if err := g.AddEdge(je.From, je.To, je.Data); err != nil {
			return nil, fmt.Errorf("dfg: decode: edges[%d]: %w", i, err)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dfg: decode: %w", err)
	}
	return g, nil
}

// UnmarshalJSON decodes a graph from the wire schema (see Decode),
// replacing the receiver's contents.
func (g *Graph) UnmarshalJSON(data []byte) error {
	ng, err := Decode(data)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}
