package dfg

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// canonGolden is one record of testdata/canon_golden.json: a shipped graph
// (DCT 4x4, the FIR and packing portfolio instances, chainblocks102, and
// cmd/tgen layered/tree/chain graphs) in wire form, with the structure hash
// and canonical order the original two-pass refinement produced for it.
type canonGolden struct {
	Name           string          `json:"name"`
	Graph          json.RawMessage `json:"graph"`
	StructureHash  string          `json:"structure_hash"`
	CanonicalOrder []int           `json:"canonical_order"`
}

// TestCanonicalGolden pins the service cache key: the one-pass refinement
// must reproduce the recorded hashes and orders byte for byte (a change
// here would silently move every cache key and every stored canonical
// assignment), and Canonical must agree with both single-view wrappers.
func TestCanonicalGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "canon_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []canonGolden
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty golden file")
	}
	for _, r := range recs {
		g, err := Decode(r.Graph)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		h, order := g.Canonical()
		if h != r.StructureHash {
			t.Errorf("%s: Canonical hash %s, golden %s", r.Name, h, r.StructureHash)
		}
		if !slices.Equal(order, r.CanonicalOrder) {
			t.Errorf("%s: Canonical order %v, golden %v", r.Name, order, r.CanonicalOrder)
		}
		if got := g.StructureHash(); got != h {
			t.Errorf("%s: StructureHash %s != Canonical %s", r.Name, got, h)
		}
		if got := g.CanonicalOrder(); !slices.Equal(got, order) {
			t.Errorf("%s: CanonicalOrder %v != Canonical %v", r.Name, got, order)
		}
	}
}
