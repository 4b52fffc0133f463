package banking

import "testing"

// TestCacheableSet pins the render-cache whitelist: exactly the
// session'd read-only pages are eligible, and the registry Spec's
// Cacheable bit mirrors the Cacheable predicate type for type.
func TestCacheableSet(t *testing.T) {
	want := map[ReqType]bool{
		AccountSummary:      true,
		AddPayee:            true,
		BillPay:             true,
		BillPayStatusOutput: true,
		ChangeProfile:       true,
		CheckDetailHTML:     true,
		OrderCheck:          true,
		Profile:             true,
		Transfer:            true,
	}
	specs := Workload.Types()
	if len(specs) != int(NumTypes) {
		t.Fatalf("workload declares %d types, want %d", len(specs), NumTypes)
	}
	for tp := ReqType(0); tp < NumTypes; tp++ {
		if got := Cacheable(tp); got != want[tp] {
			t.Errorf("Cacheable(%s) = %v, want %v", Specs[tp].Name, got, want[tp])
		}
		if specs[tp].Cacheable != want[tp] {
			t.Errorf("spec %s Cacheable = %v, want %v", specs[tp].Name, specs[tp].Cacheable, want[tp])
		}
		// Mutating requests must never serve from the render cache.
		if specs[tp].Cacheable && specs[tp].Post {
			t.Errorf("POST type %s marked cacheable", specs[tp].Name)
		}
	}
}
