package fabric

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestParseNodeFaultPlanRejectsNegativeNode: a plan naming a negative
// node is an error, not a fault the fabric silently drops.
func TestParseNodeFaultPlanRejectsNegativeNode(t *testing.T) {
	if _, err := ParseNodeFaultPlan([]byte(`{"faults":[{"node":-1,"after_units":3}]}`)); err == nil {
		t.Fatal("negative node accepted")
	}
	p, err := ParseNodeFaultPlan([]byte(`{"faults":[{"node":1,"after_units":0}]}`))
	if err != nil || len(p.Faults) != 1 || p.Faults[0] != (NodeFault{Node: 1}) {
		t.Fatalf("valid plan: %+v, %v", p, err)
	}
}

// FuzzParseNodeFaultPlan: the loader never panics, every accepted plan
// names only non-negative nodes, and an accepted plan survives a
// marshal/parse round trip unchanged.
func FuzzParseNodeFaultPlan(f *testing.F) {
	f.Add([]byte(`{"faults":[{"node":1,"after_units":0}]}`))
	f.Add([]byte(`{"faults":[{"node":0,"after_units":18446744073709551615},{"node":3,"after_units":7}]}`))
	f.Add([]byte(`{"faults":[{"node":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseNodeFaultPlan(data)
		if err != nil {
			return
		}
		for i, nf := range p.Faults {
			if nf.Node < 0 {
				t.Fatalf("fault %d: accepted negative node %d", i, nf.Node)
			}
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshaling an accepted plan: %v", err)
		}
		back, err := ParseNodeFaultPlan(enc)
		if err != nil {
			t.Fatalf("re-parsing an accepted plan: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, back)
		}
	})
}
