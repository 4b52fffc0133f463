package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseFaultPlan: the loader never panics, every accepted plan
// passes the schema's own checks (known kind, non-negative device and
// after_units), and an accepted plan survives a marshal/parse round
// trip unchanged.
func FuzzParseFaultPlan(f *testing.F) {
	f.Add([]byte(`{"faults":[{"device":1,"kind":"loss","after_units":2}]}`))
	f.Add([]byte(`{"faults":[{"device":0,"kind":"launch_error","after_units":0,"count":3},{"device":2,"kind":"stall","after_units":5,"duration_ms":250}]}`))
	f.Add([]byte(`{"faults":[{"device":-1,"kind":"melt"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseFaultPlan(data)
		if err != nil {
			return
		}
		for i, flt := range p.Faults {
			switch flt.Kind {
			case KindLaunchError, KindStall, KindLoss:
			default:
				t.Fatalf("fault %d: accepted unknown kind %q", i, flt.Kind)
			}
			if flt.Device < 0 || flt.AfterUnits < 0 {
				t.Fatalf("fault %d: accepted negative device/after_units %+v", i, flt)
			}
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshaling an accepted plan: %v", err)
		}
		back, err := ParseFaultPlan(enc)
		if err != nil {
			t.Fatalf("re-parsing an accepted plan: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, back)
		}
	})
}
