package rhythm

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rhythm/internal/cluster"
)

// startCohortServer boots a CohortServer on an ephemeral port and
// registers a drain on test cleanup.
func startCohortServer(t *testing.T, opts CohortOptions) *CohortServer {
	t.Helper()
	srv, err := NewCohortServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// stallAfter is a fault plan that freezes device 0's worker for d of wall
// time on the launch attempt that follows its first after units. The stalled
// cohort stays in flight for d, so its (type, shard group) key stays
// busy: later requests of that key wait in a forming cohort instead of
// launching at once (work-conserving formation launches a cohort at
// once only while its key has nothing in flight).
func stallAfter(after int, d time.Duration) *cluster.FaultPlan {
	return &cluster.FaultPlan{Faults: []cluster.Fault{
		{Device: 0, Kind: cluster.KindStall, AfterUnits: after, DurationMs: int(d / time.Millisecond)},
	}}
}

// onLoop runs fn on the server's dispatch loop goroutine and waits for
// it, so a test can read loop-owned state without a race.
func onLoop(t *testing.T, srv *CohortServer, fn func()) {
	t.Helper()
	done := make(chan struct{})
	srv.doCh <- func() { fn(); close(done) }
	<-done
}

// waitStats polls the server's stats until ok holds, failing the test
// after 5s.
func waitStats(t *testing.T, srv *CohortServer, what string, ok func(CohortServerStats) bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if ok(srv.Stats()) {
			return
		}
	}
	t.Fatalf("timed out waiting for %s: %+v", what, srv.Stats())
}

// waitBatched waits until the pool has accepted want requests: they have
// all reached a cohort (forming or launched).
func waitBatched(t *testing.T, srv *CohortServer, want uint64) {
	t.Helper()
	waitStats(t, srv, fmt.Sprintf("%d requests batched", want), func(st CohortServerStats) bool {
		return st.RequestsBatched >= want
	})
}

func dialT(t *testing.T, addr net.Addr) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readRawResponse reads one full HTTP response — status line, headers,
// and Content-Length body — returning the exact bytes for differential
// comparison. The X-Rhythm-Trace header is dropped: flight trace IDs
// are server-assigned in arrival order, which legitimately differs
// between the two servers (and across concurrent requests), while
// every other byte must match.
func readRawResponse(t *testing.T, r *bufio.Reader) []byte {
	t.Helper()
	var buf bytes.Buffer
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response: %v (got %q so far)", err, buf.String())
		}
		if !strings.HasPrefix(line, "X-Rhythm-Trace:") {
			buf.WriteString(line)
		}
		trimmed := strings.TrimRight(line, "\r\n")
		if trimmed == "" {
			break
		}
		if v, ok := strings.CutPrefix(strings.ToLower(trimmed), "content-length:"); ok {
			fmt.Sscanf(strings.TrimSpace(v), "%d", &cl)
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatal(err)
	}
	buf.Write(body)
	return buf.Bytes()
}

// driveAllTypes drives the same request sequence through a fresh
// host-path TCPServer and the given cohort-mode server in lock step and
// asserts every response — headers, cookies, and page bytes — is
// identical. The sequence covers all 15 implemented request types plus
// the expired-session error page. The cohort server must use
// MaxSessions 4096 (the host server's session geometry) so both issue
// identical session ids. Returns the cohort server's stats after the
// drive.
func driveAllTypes(t *testing.T, dev *CohortServer) CohortServerStats {
	t.Helper()
	host := NewTCPServer(4096)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()

	hostConn := dialT(t, host.Addr())
	devConn := dialT(t, dev.Addr())
	hostR := bufio.NewReader(hostConn)
	devR := bufio.NewReader(devConn)

	// exchange sends the same raw request to both servers (host first,
	// serially, so any DB/session mutations happen in the same order)
	// and asserts byte-identical responses.
	exchange := func(label, raw string) []byte {
		t.Helper()
		if _, err := io.WriteString(hostConn, raw); err != nil {
			t.Fatal(err)
		}
		want := readRawResponse(t, hostR)
		if _, err := io.WriteString(devConn, raw); err != nil {
			t.Fatal(err)
		}
		got := readRawResponse(t, devR)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: cohort response differs from host\nhost %d bytes: %.300q\ncohort %d bytes: %.300q",
				label, len(want), want, len(got), got)
		}
		return got
	}

	uid, pw := host.Seed(7777)
	if _, dpw := dev.Seed(7777); dpw != pw {
		t.Fatalf("password mismatch: host %q cohort %q", pw, dpw)
	}

	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	login := exchange("login", fmt.Sprintf(
		"POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body))

	// Both servers issued the same session id (identical array geometry
	// + creation order); reuse it for the session'd requests.
	var cookie string
	for _, line := range strings.Split(string(login), "\r\n") {
		if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
			cookie = v
		}
	}
	if !strings.HasPrefix(cookie, "MY_ID=") {
		t.Fatalf("no session cookie in login response")
	}

	get := func(uri string) string {
		return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", uri, cookie)
	}
	post := func(uri, body string) string {
		return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s",
			uri, cookie, len(body), body)
	}

	seq := []struct{ label, raw string }{
		{"account_summary", get("/account_summary.php")},
		{"add_payee", get("/add_payee.php")},
		{"bill_pay", get("/bill_pay.php")},
		{"bill_pay_status_output", get("/bill_pay_status_output.php")},
		{"change_profile", get("/change_profile.php")},
		{"check_detail_html", get("/check_detail_html.php?check_no=1234")},
		{"order_check", get("/order_check.php")},
		{"place_check_order", post("/place_check_order.php", "style=standard&quantity=100")},
		{"post_payee", post("/post_payee.php", "name=Vendor0001&account=P-000001")},
		{"post_transfer", post("/post_transfer.php", "from=0&to=1&amount=0.42")},
		{"profile", get("/profile.php")},
		{"transfer", get("/transfer.php")},
		{"quick_pay", post("/quick_pay.php", "payee1=Vendor0001&amount1=2.00&payee2=Vendor0002&amount2=3.25")},
		{"logout", get("/logout.php")},
		{"expired session", get("/profile.php")}, // error page, still identical
	}
	for _, s := range seq {
		exchange(s.label, s.raw)
	}
	return dev.Stats()
}

// TestCohortServerDifferentialAllTypes is the fixed-timeout byte
// identity drive: every request forms its own single-request cohort and,
// finding its key idle, launches at once.
func TestCohortServerDifferentialAllTypes(t *testing.T) {
	dev := startCohortServer(t, CohortOptions{
		CohortSize:       8,
		MaxCohorts:       4,
		FormationTimeout: 2 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096, // same session geometry as NewTCPServer(4096)
	})
	st := driveAllTypes(t, dev)
	// 16 banking requests, each its own single-request cohort (serial
	// lock-step can never batch), all launched at once on an idle key.
	if st.CohortsFormed != 16 || st.CohortsIdle != 16 {
		t.Fatalf("cohorts formed=%d idle=%d, want 16/16", st.CohortsFormed, st.CohortsIdle)
	}
	if len(st.Types) != 15 {
		t.Fatalf("stats cover %d types, want 15", len(st.Types))
	}
}

// TestAdaptiveDifferentialHostFallback runs the same differential drive
// with the adaptive controller on and the crossover rate pinned so high
// that every type routes to the scalar host fallback. The pages must
// stay byte-identical to the reference host server — the fallback path
// runs the same services against the same sharded state — and every
// request must be accounted as a host fallback.
func TestAdaptiveDifferentialHostFallback(t *testing.T) {
	dev := startCohortServer(t, CohortOptions{
		CohortSize:      8,
		MaxCohorts:      4,
		RequestDeadline: 30 * time.Second,
		MaxSessions:     4096,
		SLO:             50 * time.Millisecond,
		CrossoverRate:   1e12, // no realistic rate exceeds this: always host
	})
	st := driveAllTypes(t, dev)
	if st.Adapt == nil {
		t.Fatal("stats missing adapt section with SLO set")
	}
	if st.HostFallbacks != 16 {
		t.Fatalf("host fallbacks = %d, want 16 (every banking request)", st.HostFallbacks)
	}
	if st.CohortsFormed != 0 {
		t.Fatalf("cohorts formed = %d, want 0 when everything host-routes", st.CohortsFormed)
	}
	var hostReqs uint64
	for _, ts := range st.Types {
		hostReqs += ts.HostRequests
	}
	if hostReqs != 16 {
		t.Fatalf("per-type host requests sum to %d, want 16", hostReqs)
	}
}

// TestAdaptiveDifferentialDeviceOnly runs the drive with the adaptive
// controller on but host fallback disabled (CrossoverRate < 0): every
// request must still batch through the device pipeline under the
// controller's windows, byte-identical to the host reference.
func TestAdaptiveDifferentialDeviceOnly(t *testing.T) {
	dev := startCohortServer(t, CohortOptions{
		CohortSize:      8,
		MaxCohorts:      4,
		RequestDeadline: 30 * time.Second,
		MaxSessions:     4096,
		SLO:             50 * time.Millisecond,
		CrossoverRate:   -1, // never route to host
	})
	st := driveAllTypes(t, dev)
	if st.Adapt == nil {
		t.Fatal("stats missing adapt section with SLO set")
	}
	if st.HostFallbacks != 0 {
		t.Fatalf("host fallbacks = %d, want 0 with fallback disabled", st.HostFallbacks)
	}
	if st.CohortsFormed != 16 {
		t.Fatalf("cohorts formed = %d, want 16", st.CohortsFormed)
	}
	if len(st.Types) != 15 {
		t.Fatalf("stats cover %d types, want 15", len(st.Types))
	}
}

// TestCohortServerBatchesConcurrent proves batching on the wire: N
// concurrent account_summary requests from distinct connections land in
// one cohort (occupancy > 1) and every response still matches the host
// path byte for byte. The burst's first cohort stalls on the device, so
// the rest of the burst forms behind it.
func TestCohortServerBatchesConcurrent(t *testing.T) {
	const users = 6
	host := NewTCPServer(4096)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()

	dev := startCohortServer(t, CohortOptions{
		CohortSize:       64,
		MaxCohorts:       4,
		FormationTimeout: 100 * time.Millisecond, // wide window: one cohort
		RequestDeadline:  30 * time.Second,
		MaxSessions:      4096,
		// The six logins launch cleanly; the burst's first cohort
		// stalls, holding the key busy while the others arrive.
		FaultPlan: stallAfter(users, 200*time.Millisecond),
	})

	// Serial logins on both servers keep session-id creation order
	// identical.
	type client struct {
		conn   net.Conn
		r      *bufio.Reader
		cookie string
	}
	login := func(addr net.Addr, uid uint64, pw string) client {
		c := client{conn: dialT(t, addr)}
		c.r = bufio.NewReader(c.conn)
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
		fmt.Fprintf(c.conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
		resp := readRawResponse(t, c.r)
		for _, line := range strings.Split(string(resp), "\r\n") {
			if v, ok := strings.CutPrefix(line, "Set-Cookie: "); ok {
				c.cookie = v
			}
		}
		if c.cookie == "" {
			t.Fatalf("login for uid %d returned no cookie", uid)
		}
		return c
	}
	var hostClients, devClients [users]client
	for i := 0; i < users; i++ {
		uid, pw := host.Seed(uint64(9001 + i))
		dev.Seed(uid)
		hostClients[i] = login(host.Addr(), uid, pw)
		devClients[i] = login(dev.Addr(), uid, pw)
		if hostClients[i].cookie != devClients[i].cookie {
			t.Fatalf("session ids diverged for uid %d: %q vs %q", uid, hostClients[i].cookie, devClients[i].cookie)
		}
	}

	// Expected pages from the host path (account_summary is read-only,
	// so per-user content is order-independent).
	var want [users][]byte
	for i := range hostClients {
		fmt.Fprintf(hostClients[i].conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", hostClients[i].cookie)
		want[i] = readRawResponse(t, hostClients[i].r)
	}

	// Concurrent burst at the cohort server: all requests inside one
	// formation window.
	var wg sync.WaitGroup
	got := make([][]byte, users)
	start := make(chan struct{})
	for i := range devClients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fmt.Fprintf(devClients[i].conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", devClients[i].cookie)
			got[i] = readRawResponse(t, devClients[i].r)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range got {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("user %d: batched cohort response differs from host path", i)
		}
	}
	st := dev.Stats()
	if st.MaxOccupancy < 2 {
		t.Fatalf("max occupancy %d: concurrent burst did not batch", st.MaxOccupancy)
	}
}

// postLogin sends a login for uid on a fresh connection and returns a
// reader for its response.
func postLogin(t *testing.T, srv *CohortServer, uid uint64) *bufio.Reader {
	t.Helper()
	uid, pw := srv.Seed(uid)
	conn := dialT(t, srv.Addr())
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	return bufio.NewReader(conn)
}

// TestCohortServerSingleRequestTimeout: the §3.1 formation timeout must
// fire for a cohort holding exactly one request, queued behind a stalled
// cohort of its key, and no earlier than the timeout.
func TestCohortServerSingleRequestTimeout(t *testing.T) {
	const timeout, stall = 20 * time.Millisecond, 300 * time.Millisecond
	srv := startCohortServer(t, CohortOptions{
		CohortSize:       32,
		FormationTimeout: timeout,
		RequestDeadline:  30 * time.Second,
		FaultPlan:        stallAfter(0, stall),
	})
	first := postLogin(t, srv, 1234)
	waitBatched(t, srv, 1) // launched at once, now stalled on the device
	second := postLogin(t, srv, 1235)
	readLogins(t, first, second)
	st := srv.Stats()
	if st.CohortsFormed != 2 || st.CohortsIdle != 1 || st.CohortsTimedOut != 1 || st.CohortsFilled != 0 {
		t.Fatalf("cohort stats formed=%d idle=%d timeout=%d filled=%d, want 2/1/1/0",
			st.CohortsFormed, st.CohortsIdle, st.CohortsTimedOut, st.CohortsFilled)
	}
	if st.MeanOccupancy != 1 {
		t.Fatalf("mean occupancy %v, want 1", st.MeanOccupancy)
	}
	// The second request's formation wait is the longest: at least the
	// timeout, and well short of the stall (the timer launched it, not
	// the stalled cohort's completion).
	var maxWait time.Duration
	onLoop(t, srv, func() { maxWait = time.Duration(srv.formWait.Max()) })
	if maxWait < timeout || maxWait >= stall {
		t.Fatalf("timed-out request waited %v in formation, want [%v, %v)", maxWait, timeout, stall)
	}
}

// readLogins reads one login response from each reader and fails on any
// page that is not a successful login.
func readLogins(t *testing.T, rs ...*bufio.Reader) {
	t.Helper()
	for _, r := range rs {
		if resp := readRawResponse(t, r); !bytes.Contains(resp, []byte("Login successful")) {
			t.Fatalf("cohort produced a bad page: %.200q", resp)
		}
	}
}

// TestCohortServerIdleKeyLaunchesAtOnce: a request whose key has nothing
// in flight launches at once — no formation timer is ever armed, and its
// formation wait is far below the timeout. The launch is visible as
// "idle" in the stats, the metrics and the flight record.
func TestCohortServerIdleKeyLaunchesAtOnce(t *testing.T) {
	const timeout = time.Second
	srv := startCohortServer(t, CohortOptions{
		CohortSize:       32,
		FormationTimeout: timeout,
		RequestDeadline:  30 * time.Second,
		FlightSlow:       time.Nanosecond, // retain every record
	})
	readLogins(t, postLogin(t, srv, 4321))

	var armed uint64
	var forming int
	var maxWait time.Duration
	onLoop(t, srv, func() {
		armed, forming = srv.nextGen, len(srv.forming)
		maxWait = time.Duration(srv.formWait.Max())
	})
	if armed != 0 || forming != 0 {
		t.Fatalf("formation timers armed=%d forming=%d, want 0/0 on an idle key", armed, forming)
	}
	if maxWait > timeout/10 {
		t.Fatalf("formation wait %v on an idle key, want far below the %v timeout", maxWait, timeout)
	}
	st := srv.Stats()
	if st.CohortsFormed != 1 || st.CohortsIdle != 1 || st.Types["banking/login"].Idle != 1 {
		t.Fatalf("cohorts formed=%d idle=%d login idle=%d, want 1/1/1",
			st.CohortsFormed, st.CohortsIdle, st.Types["banking/login"].Idle)
	}
	doc := fetchFlightDoc(t, srv.Addr())
	if len(doc.Records) != 1 || doc.Records[0].LaunchReason != "idle" {
		t.Fatalf("flight records %+v, want one with launch_reason idle", doc.Records)
	}
}

// TestCohortServerBusyKeyBatchesBehindInFlight: requests that arrive
// while their key's cohort is stalled on the device batch into one
// cohort, which launches with reason idle the moment the stalled cohort
// completes — long before its formation timer would fire.
func TestCohortServerBusyKeyBatchesBehindInFlight(t *testing.T) {
	srv := startCohortServer(t, CohortOptions{
		CohortSize:       32,
		FormationTimeout: 10 * time.Second,
		RequestDeadline:  30 * time.Second,
		FaultPlan:        stallAfter(0, 300*time.Millisecond),
		FlightSlow:       time.Nanosecond, // retain every record
	})
	first := postLogin(t, srv, 5000)
	waitBatched(t, srv, 1)
	var rest []*bufio.Reader
	for uid := uint64(5001); uid <= 5003; uid++ {
		rest = append(rest, postLogin(t, srv, uid))
	}
	waitBatched(t, srv, 4)
	readLogins(t, append(rest, first)...)

	st := srv.Stats()
	if st.CohortsFormed != 2 || st.CohortsIdle != 2 || st.CohortsTimedOut != 0 || st.MaxOccupancy != 3 {
		t.Fatalf("cohorts formed=%d idle=%d timed_out=%d max occupancy=%d, want 2/2/0/3",
			st.CohortsFormed, st.CohortsIdle, st.CohortsTimedOut, st.MaxOccupancy)
	}
	var forming int
	onLoop(t, srv, func() { forming = len(srv.forming) })
	if forming != 0 {
		t.Fatalf("%d formation timers left armed after the idle launch", forming)
	}
	var batched int
	for _, rec := range fetchFlightDoc(t, srv.Addr()).Records {
		if rec.CohortSize == 3 {
			batched++
			if rec.LaunchReason != "idle" {
				t.Fatalf("batched record launch_reason %q, want idle", rec.LaunchReason)
			}
		}
	}
	if batched != 3 {
		t.Fatalf("%d flight records rode the 3-request cohort, want 3", batched)
	}
}

// TestCohortServerBusyKeyLaunchesByTimeout: while a key stays busy the
// formation timeout is still the §3.1 bound — each cohort formed behind
// the stalled one launches by its timer, so the key can hold several
// cohorts in flight. Once they all finish the key is idle again and the
// next request launches at once.
func TestCohortServerBusyKeyLaunchesByTimeout(t *testing.T) {
	const stall = 400 * time.Millisecond
	srv := startCohortServer(t, CohortOptions{
		CohortSize:       32,
		FormationTimeout: 20 * time.Millisecond,
		RequestDeadline:  30 * time.Second,
		FaultPlan:        stallAfter(0, stall),
	})
	start := time.Now()
	first := postLogin(t, srv, 6000)
	waitBatched(t, srv, 1)
	second := postLogin(t, srv, 6001)
	waitStats(t, srv, "1 timed-out cohort", func(st CohortServerStats) bool { return st.CohortsTimedOut == 1 })
	third := postLogin(t, srv, 6002)
	waitStats(t, srv, "2 timed-out cohorts", func(st CohortServerStats) bool { return st.CohortsTimedOut == 2 })
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("timeouts took %v, not inside the %v stall", elapsed, stall)
	}
	var busy int
	onLoop(t, srv, func() { busy = srv.busy["banking/login/0"] })
	if busy != 3 {
		t.Fatalf("login key has %d cohorts in flight, want 3 (one stalled, two timed out)", busy)
	}
	readLogins(t, first, second, third)

	readLogins(t, postLogin(t, srv, 6003))
	st := srv.Stats()
	if st.CohortsFormed != 4 || st.CohortsIdle != 2 || st.CohortsTimedOut != 2 {
		t.Fatalf("cohorts formed=%d idle=%d timed_out=%d, want 4/2/2",
			st.CohortsFormed, st.CohortsIdle, st.CohortsTimedOut)
	}
	onLoop(t, srv, func() { busy = len(srv.busy) })
	if busy != 0 {
		t.Fatalf("%d keys still marked busy with nothing in flight", busy)
	}
}

// TestCohortServerShutdownFlushesPartial: Shutdown while a cohort is
// PartiallyFull (timeouts disabled, and its key held busy by a stalled
// cohort, so it would otherwise wait for the stall) must flush it and
// deliver the real response before closing.
func TestCohortServerShutdownFlushesPartial(t *testing.T) {
	srv, err := NewCohortServer(CohortOptions{
		CohortSize:       32,
		FormationTimeout: -1, // never: only drain can launch the partial cohort
		RequestDeadline:  30 * time.Second,
		FaultPlan:        stallAfter(0, time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	stalled := postLogin(t, srv, 54)
	waitBatched(t, srv, 1)
	partial := postLogin(t, srv, 55)

	// Let the second request reach its forming cohort, then drain.
	waitBatched(t, srv, 2)
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	readLogins(t, partial, stalled)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Timers are off, so the one timeout-counted launch is the drain
	// flush of the partial cohort.
	if st := srv.Stats(); st.CohortsFormed != 2 || st.CohortsIdle != 1 || st.CohortsTimedOut != 1 {
		t.Fatalf("cohorts formed=%d idle=%d timed_out=%d, want 2/1/1 (the drain flush)",
			st.CohortsFormed, st.CohortsIdle, st.CohortsTimedOut)
	}
	// The listener is gone.
	if _, err := net.Dial("tcp", srv.Addr().String()); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// TestCohortServerRejectsWhenSaturated: with the only context held Busy
// by a stalled cohort and no overflow allowance, a request of a
// different type must shed with 503 + Retry-After.
func TestCohortServerRejectsWhenSaturated(t *testing.T) {
	srv := startCohortServer(t, CohortOptions{
		CohortSize:      4,
		MaxCohorts:      1,
		OverflowLimit:   -1, // no parking: reject immediately
		RequestDeadline: 30 * time.Second,
		FaultPlan:       stallAfter(0, 500*time.Millisecond), // hold the only context Busy
	})

	conn1 := dialT(t, srv.Addr())
	fmt.Fprintf(conn1, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	waitBatched(t, srv, 1) // it occupies the context

	conn2 := dialT(t, srv.Addr())
	fmt.Fprintf(conn2, "GET /profile.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	resp := string(readRawResponse(t, bufio.NewReader(conn2)))
	if !strings.HasPrefix(resp, "HTTP/1.1 503 ") {
		t.Fatalf("saturated pool answered %.100q, want 503", resp)
	}
	if !strings.Contains(resp, "Retry-After: ") {
		t.Fatalf("503 without Retry-After: %.200q", resp)
	}
	st := srv.Stats()
	if st.RejectedPool != 1 {
		t.Fatalf("rejected_pool = %d, want 1", st.RejectedPool)
	}
	if st.AdmissionStalls == 0 {
		t.Fatal("pool admission stall not counted")
	}
	// conn1's stalled request completes when the stall ends; the cleanup
	// Shutdown waits for it.
}

// TestCohortServerRequestDeadline: a request stuck past RequestDeadline
// (its cohort stalled on the device) gets a 504 and the connection
// stays usable.
func TestCohortServerRequestDeadline(t *testing.T) {
	srv := startCohortServer(t, CohortOptions{
		CohortSize:      32,
		RequestDeadline: 60 * time.Millisecond,
		FaultPlan:       stallAfter(0, 300*time.Millisecond), // the deadline must fire first
	})
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /transfer.php HTTP/1.1\r\nHost: t\r\nCookie: MY_ID=0-0-0\r\n\r\n")
	resp := string(readRawResponse(t, r))
	if !strings.HasPrefix(resp, "HTTP/1.1 504 ") {
		t.Fatalf("deadline answered %.100q, want 504", resp)
	}
	if srv.Stats().DeadlineMisses != 1 {
		t.Fatalf("deadline_misses = %d, want 1", srv.Stats().DeadlineMisses)
	}
}

// TestCohortServerStatsEndpoint: /v1/stats serves JSON in both modes.
func TestCohortServerStatsEndpoint(t *testing.T) {
	srv := startCohortServer(t, CohortOptions{FormationTimeout: 5 * time.Millisecond})
	conn := dialT(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", StatsPathV1)
	resp := string(readRawResponse(t, r))
	if !strings.HasPrefix(resp, "HTTP/1.1 200 ") || !strings.Contains(resp, `"mode": "cohort"`) {
		t.Fatalf("cohort stats endpoint: %.200q", resp)
	}

	host := NewTCPServer(256)
	if err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go host.Serve()
	hconn := dialT(t, host.Addr())
	hr := bufio.NewReader(hconn)
	fmt.Fprintf(hconn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", StatsPathV1)
	hresp := string(readRawResponse(t, hr))
	if !strings.HasPrefix(hresp, "HTTP/1.1 200 ") || !strings.Contains(hresp, `"mode": "host"`) {
		t.Fatalf("host stats endpoint: %.200q", hresp)
	}
}
