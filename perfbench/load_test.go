package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func page(status int, extra, body string) []byte {
	return []byte(fmt.Sprintf("HTTP/1.1 %d X\r\nX-Rhythm-Trace: 7\r\n%sContent-Length: %d\r\n\r\n%s", status, extra, len(body), body))
}

// goodPage answers a request path with a correct page of its workload.
func goodPage(path string) []byte {
	switch {
	case strings.HasPrefix(path, "/t/"):
		return page(200, "", "RHYTHM-T STAT dev=1")
	case strings.HasPrefix(path, "/index.php"), strings.HasPrefix(path, "/browse.php"),
		strings.HasPrefix(path, "/search.php"), strings.HasPrefix(path, "/product.php"):
		return page(200, "", "<html><head><title>RhythmShop - Storefront</title>")
	}
	return page(200, "", "<!DOCTYPE html><html><head><title>SPECweb Banking - Summary</title>")
}

// fakeServer serves HTTP/1.1 requests with answer(n, path), n counting
// requests after the login; a nil answer closes the connection.
func fakeServer(t *testing.T, answer func(n int, path string) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	var mu sync.Mutex
	n := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					path := strings.Fields(line)[1]
					cl := 0
					for {
						h, err := br.ReadString('\n')
						if err != nil {
							return
						}
						h = strings.TrimSpace(h)
						if h == "" {
							break
						}
						if v, ok := strings.CutPrefix(h, "Content-Length: "); ok {
							cl, _ = strconv.Atoi(v)
						}
					}
					if _, err := br.Discard(cl); err != nil {
						return
					}
					var resp []byte
					if path == "/login.php" {
						resp = page(200, "Set-Cookie: MY_ID=00000000000000aa\r\n", "<!DOCTYPE html><html>")
					} else {
						mu.Lock()
						n++
						k := n
						mu.Unlock()
						resp = answer(k, path)
					}
					if resp == nil {
						return
					}
					if _, err := conn.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func TestRefusedAndFailedRequestsCountInErrorRatio(t *testing.T) {
	addr := fakeServer(t, func(n int, path string) []byte {
		switch n % 8 {
		case 1:
			return page(503, "Retry-After: 1\r\n", "503 cohort pool saturated\n")
		case 2:
			return page(200, "", "<html><head><title>SPECweb Banking - Error</title></head>")
		case 3:
			return page(504, "", "deadline\n")
		case 4:
			return nil // dead connection
		case 5:
			return []byte("garbage\r\n\r\n")
		}
		return goodPage(path)
	})
	t0 := time.Now()
	var lr loadResult
	lr.subs = make([]subTally, 1)
	driveConn(addr, newFlow(3, 0), t0, t0.Add(300*time.Millisecond), &lr)

	if lr.ok == 0 || lr.invalid == 0 || lr.dead == 0 {
		t.Fatalf("want OK, invalid and dead requests, got ok=%d invalid=%d dead=%d", lr.ok, lr.invalid, lr.dead)
	}
	if lr.attempted != lr.ok+lr.failed {
		t.Errorf("attempted %d != ok %d + failed %d", lr.attempted, lr.ok, lr.failed)
	}
	if lr.failed != lr.invalid+lr.dead {
		t.Errorf("failed %d != invalid %d + dead %d", lr.failed, lr.invalid, lr.dead)
	}
	// Roughly half the answers are sheds, error pages, timeouts, dead
	// connections or garbage.
	if r := float64(lr.failed) / float64(lr.attempted); r < 0.3 {
		t.Errorf("error ratio %.2f: refused and failed requests went uncounted", r)
	}

	rep := newReport("host-mix", 3, 1, false)
	lr.window = 300 * time.Millisecond
	reportLoad(rep, lr, []int{0}, []stealDelta{{0, 100}})
	if rep.correct() {
		t.Error("a run with failed requests must be incorrect")
	}
	var out bytes.Buffer
	rep.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != lr.attempted || res.Failed != lr.failed {
		t.Errorf("result line %+v, want attempted %d failed %d incorrect", res, lr.attempted, lr.failed)
	}
	want := fmt.Sprintf("(%d failed of %d attempted)", lr.failed, lr.attempted)
	if !strings.Contains(out.String(), want) {
		t.Errorf("error_ratio line lacks its base %q", want)
	}
}

func TestValidate(t *testing.T) {
	var r response
	read := func(b []byte) {
		t.Helper()
		if err := readResponse(bufio.NewReader(bytes.NewReader(b)), &r, true); err != nil {
			t.Fatal(err)
		}
	}
	read(goodPage("/account_summary.php"))
	if !validate(wlBanking, &r) {
		t.Error("correct banking page rejected")
	}
	if validate(wlEcom, &r) {
		t.Error("banking page accepted as ecom")
	}
	if bytes.Contains(r.raw, []byte("X-Rhythm-Trace")) {
		t.Error("raw response keeps the trace header")
	}
	read(page(200, "", "<!DOCTYPE html><html><head><title>SPECweb Banking - Error</title>"))
	if validate(wlBanking, &r) {
		t.Error("error page accepted")
	}
	read(page(503, "", "<!DOCTYPE html"))
	if validate(wlBanking, &r) {
		t.Error("503 accepted")
	}
}

func TestFlowIsSeeded(t *testing.T) {
	stream := func(seed int64, conn int) string {
		f := newFlow(seed, conn)
		f.cookie = []byte("MY_ID=00000000000000aa")
		var b strings.Builder
		b.Write(f.login())
		for i := 0; i < 50; i++ {
			_, req := f.next(nil)
			b.Write(req)
		}
		return b.String()
	}
	if stream(5, 0) != stream(5, 0) {
		t.Error("same seed gave different streams")
	}
	if stream(5, 0) == stream(6, 0) {
		t.Error("different seeds gave the same stream")
	}
	if stream(5, 0) == stream(5, 1) {
		t.Error("different connections gave the same stream")
	}
	if pickUser(5, 0) == pickUser(5, 1) {
		t.Error("connections share a user")
	}
	if userNode(pickUser(5, 0)) == userNode(pickUser(5, 1)) {
		t.Error("both connections' sessions live on one worker")
	}
}
