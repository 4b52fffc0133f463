package workloads

import (
	"fmt"
	"testing"

	"rhythm/internal/banking"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

func get(uri, cookie string) string {
	if cookie != "" {
		cookie = "Cookie: " + cookie + "\r\n"
	}
	return "GET " + uri + " HTTP/1.1\r\nHost: w\r\n" + cookie + "\r\n"
}

func post(uri, cookie, body string) string {
	if cookie != "" {
		cookie = "Cookie: " + cookie + "\r\n"
	}
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: w\r\n%sContent-Length: %d\r\n\r\n%s", uri, cookie, len(body), body)
}

// TestNoSectionBudgetOvershoot: with padding on, no PadTo target of any
// type of any registered workload is already passed when it is reached
// (PageBuilder.Misaligned() == 0) — an overshoot means a mis-sized
// section budget that silently breaks the cohort alignment (§4.3.2).
// Every type must execute successfully at least once.
func TestNoSectionBudgetOvershoot(t *testing.T) {
	reg := Default()
	bes := reg.NewBackends()
	sessions := session.NewArray(256, 64)
	gen := banking.NewGenerator(3, sessions)
	gen.Populate(256)

	ok := make([]int, reg.NumTypes())
	run := func(raw string) *service.Ctx {
		t.Helper()
		req, err := httpx.Parse([]byte(raw))
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		st, found := reg.Classify(&req)
		if !found {
			t.Fatalf("%q did not classify", raw)
		}
		wi := reg.WorkloadIndex(st)
		pw := reg.Workloads()[wi].(*service.PageWorkload)
		ctx := pw.Execute(reg.Spec(st).Local, &req, sessions, bes[wi], true)
		if n := ctx.Page.Misaligned(); n != 0 {
			t.Errorf("%s: %d PadTo targets overshot (marks %v)", reg.Spec(st).Display, n, ctx.Page.Marks())
		}
		if ctx.Err == "" {
			ok[st]++
		}
		return ctx
	}

	for rt := banking.ReqType(0); rt < banking.NumTypes; rt++ {
		for i := 0; i < 8; i++ {
			run(string(gen.Request(rt)))
		}
	}
	for _, raw := range []string{get("/index.php", ""), get("/browse.php?cat=books", ""), get("/browse.php", ""),
		get("/search.php?q=lamp", ""), get("/search.php?q=kw977", ""), get("/product.php?id=4242", "")} {
		run(raw)
	}
	// The cart add creates the session the checkouts use; the second
	// checkout finds the cart empty and retires early.
	cookie := run(post("/cart.php", "", "uid=9001&id=4242&qty=2")).NewCookie
	for _, raw := range []string{post("/cart.php", cookie, "uid=9001&id=137&qty=1"), get("/index.php", cookie),
		post("/checkout.php", cookie, ""), post("/checkout.php", cookie, "")} {
		run(raw)
	}
	// Subscribes and ingests feed the polls.
	run(get("/t/subscribe?dev=3&sub=1", ""))
	run(get("/t/status?dev=3", ""))
	for i := 0; i < 20; i++ {
		run(post("/t/ingest", "", fmt.Sprintf("dev=3&f=%04x", i)))
	}
	run(get("/t/poll?dev=3&sub=1", ""))
	run(get("/t/poll?dev=3&sub=1", ""))

	for st, n := range ok {
		if n == 0 {
			t.Errorf("%s: no request executed successfully", reg.Spec(service.TypeID(st)).Display)
		}
	}
}
