package rhythm

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
)

// TestAllocBudgets enforces the committed allocation budgets of the
// frontend hot path (BENCH_allocs.json): classify, render, a render
// cache hit, a render cache miss, the flight record's arm and commit,
// and a /v1/metrics scrape, measured with testing.AllocsPerRun. Any increase over a committed budget fails the
// build (the alloc-gate CI job); improvements print a reminder to
// re-baseline. Re-baseline deliberately with:
//
//	RHYTHM_WRITE_ALLOC_BASELINE=1 go test -run TestAllocBudgets .
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	measured := measureAllocs(t)

	if os.Getenv("RHYTHM_WRITE_ALLOC_BASELINE") != "" {
		buf, err := json.MarshalIndent(measured, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("BENCH_allocs.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote BENCH_allocs.json: %s", buf)
		return
	}

	raw, err := os.ReadFile("BENCH_allocs.json")
	if err != nil {
		t.Fatalf("no committed alloc baseline (re-baseline with RHYTHM_WRITE_ALLOC_BASELINE=1): %v", err)
	}
	var budgets map[string]float64
	if err := json.Unmarshal(raw, &budgets); err != nil {
		t.Fatalf("BENCH_allocs.json: %v", err)
	}

	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		budget := budgets[name]
		got, ok := measured[name]
		if !ok {
			t.Errorf("%s: budgeted in BENCH_allocs.json but not measured", name)
			continue
		}
		switch {
		case got > budget:
			t.Errorf("%s: %.2f allocs/request exceeds the committed budget %.2f — the hot path regressed", name, got, budget)
		case got < budget-1:
			t.Logf("%s: improved to %.2f allocs/request (budget %.2f) — consider re-baselining BENCH_allocs.json", name, got, budget)
		default:
			t.Logf("%s: %.2f allocs/request within budget %.2f", name, got, budget)
		}
	}
	for name := range measured {
		if _, ok := budgets[name]; !ok {
			t.Errorf("%s: measured but missing from BENCH_allocs.json — re-baseline", name)
		}
	}
}

// measureAllocs builds a cache-enabled host server and measures each
// hot-path segment in isolation. Everything runs in-process against the
// shared frontend's respond, arm, commit, and metrics paths — the ones
// its connection loop runs in both modes — with the host executor
// behind them, so the numbers track the real serving loop, not a
// synthetic copy.
func measureAllocs(t *testing.T) map[string]float64 {
	t.Helper()
	s := NewTCPServer(4096)
	s.EnableRenderCache(1 << 12)
	f := s.frontend
	uid, pw := f.Seed(7001)
	a := newConnArena(f.arenaOut)

	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	login := []byte(fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	resp, _, _ := f.respond(a, login)
	cookie := setCookieValue(string(resp))
	if cookie == "" {
		t.Fatalf("login returned no cookie: %.200q", resp)
	}
	summary := []byte("GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: " + cookie + "\r\n\r\n")

	m := map[string]float64{}
	bad := false

	// classify: parse into the arena request and route to a type — the
	// prefix every request pays.
	m["classify"] = testing.AllocsPerRun(500, func() {
		if err := httpx.ParseInto(summary, &a.req); err != nil {
			bad = true
			return
		}
		if _, ok := f.reg.Classify(&a.req); !ok {
			bad = true
		}
	})

	// render: serialize an executed page into the arena's reusable
	// response buffer.
	if err := httpx.ParseInto(summary, &a.req); err != nil {
		t.Fatal(err)
	}
	st, ok := f.reg.Classify(&a.req)
	if !ok {
		t.Fatal("account_summary did not classify")
	}
	page, wi := pageWorkloadOf(t, f.reg, st)
	ctx := a.scratch.Execute(page, f.reg.Spec(st).Local, &a.req, s.sessions, s.bes[wi], true)
	if ctx.Err != "" {
		t.Fatalf("execute failed: %s", ctx.Err)
	}
	m["render"] = testing.AllocsPerRun(500, func() {
		page.Render(ctx, a.out[:ctx.Def.BufferBytes])
	})

	// cache_hit: the full respond path when the page is cached — the
	// steady state the render cache buys (budget: <= 1, the parse's
	// raw-to-string conversion).
	f.respond(a, summary) // prime
	m["cache_hit"] = testing.AllocsPerRun(500, func() {
		if r, _, _ := f.respond(a, summary); len(r) == 0 {
			bad = true
		}
	})

	// cache_miss: the full respond path when the user's state version
	// just moved — execute, render, and re-insert.
	m["cache_miss"] = testing.AllocsPerRun(200, func() {
		f.cache.Invalidate(uid)
		if r, _, _ := f.respond(a, summary); len(r) == 0 {
			bad = true
		}
	})

	// flight_append: arming, filling, and finishing the per-request
	// flight record plus the response-header trace-ID splice — the
	// recorder's always-on per-request cost (budget: <= 1 alloc/request;
	// measured 0 — ring slots are preallocated and the splice reuses the
	// arena's write buffer).
	flightStart := time.Now()
	m["flight_append"] = testing.AllocsPerRun(500, func() {
		id := f.arm(a, st, flightStart)
		a.frec.HostExec = true
		a.wbuf = spliceTraceHeader(a.wbuf, resp, id)
		f.commit(a, nil, id, flightStart)
	})

	// metrics_scrape: one Prometheus /v1/metrics render.
	m["metrics_scrape"] = testing.AllocsPerRun(100, func() {
		if len(f.metricsResponse()) == 0 {
			bad = true
		}
	})

	if bad {
		t.Fatal("a measured path failed while counting allocations")
	}
	return m
}

// pageWorkloadOf returns the page workload serving t and its index.
func pageWorkloadOf(t *testing.T, reg *service.Registry, st service.TypeID) (*service.PageWorkload, int) {
	t.Helper()
	wi := reg.WorkloadIndex(st)
	pw, ok := reg.Workloads()[wi].(*service.PageWorkload)
	if !ok {
		t.Fatalf("%s is not a page workload", reg.Spec(st).Display)
	}
	return pw, wi
}

// TestHostExecutorAllocsBelowExecuteHost pins the host executor's
// zero-copy arena path for the registry's non-banking page workloads:
// steady-state, executing an ecom and a telemetry request through the
// connection arena (scratch ctx and builder, reused render buffer) must
// allocate strictly less than the registry's scalar ExecuteHost, which
// builds a fresh ctx, page builder and response per request.
func TestHostExecutorAllocsBelowExecuteHost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	s := NewTCPServer(4096)
	a := newConnArena(s.arenaOut)
	for _, tc := range []struct{ label, raw string }{
		{"ecom/product_detail", "GET /product.php?id=4242 HTTP/1.1\r\nHost: t\r\n\r\n"},
		{"telemetry/status", "GET /t/status?dev=17 HTTP/1.1\r\nHost: t\r\n\r\n"},
	} {
		if err := httpx.ParseInto([]byte(tc.raw), &a.req); err != nil {
			t.Fatal(err)
		}
		st, ok := s.reg.Classify(&a.req)
		if !ok || s.reg.Spec(st).Display != tc.label {
			t.Fatalf("%q classified as %v (%v), want %s", tc.raw, st, ok, tc.label)
		}
		var failed bool
		arena := testing.AllocsPerRun(200, func() {
			resp, _ := s.execute(a, st, cacheSlot{})
			failed = failed || len(resp) == 0
		})
		scalar := testing.AllocsPerRun(200, func() {
			resp, bad := s.reg.ExecuteHost(st, &a.req, s.sessions, s.bes)
			failed = failed || bad || len(resp) == 0
		})
		if failed {
			t.Fatalf("%s: execution failed while counting allocations", tc.label)
		}
		if arena >= scalar {
			t.Errorf("%s: host executor %.1f allocs/request, ExecuteHost %.1f — the arena path must allocate less", tc.label, arena, scalar)
		} else {
			t.Logf("%s: host executor %.1f allocs/request, ExecuteHost %.1f", tc.label, arena, scalar)
		}
	}
}

// setCookieValue extracts the Set-Cookie value from a raw HTTP response.
func setCookieValue(resp string) string {
	for _, line := range strings.Split(resp, "\r\n") {
		if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
			return v
		}
	}
	return ""
}
