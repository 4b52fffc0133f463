package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"rhythm/internal/backend"
	"rhythm/internal/ecom"
)

// Workload indices of the request mix. Every request's workload is drawn
// from a seeded RNG with the weights below (banking 70, ecom 25,
// telemetry 5).
const (
	wlBanking = iota
	wlEcom
	wlTelemetry
	numWorkloads
)

var (
	workloadNames = [numWorkloads]string{"banking", "ecom", "telemetry"}
	mixWeights    = [numWorkloads]int{70, 25, 5}
)

// Demo accounts: the servers seed deterministic passwords for these ids.
const (
	firstUser = 1001
	numUsers  = 64
)

// flow generates one connection's request stream. It is a copy of
// cmd/rhythm-load's canned per-workload flows (that command is package
// main), extended with a banking transfer so the load includes writes.
// Everything it emits derives from the seed and the connection index:
// the same pair always yields the same bytes.
type flow struct {
	rng    *rand.Rand
	conn   int
	uid    uint64
	cookie []byte
	step   [numWorkloads]int
}

func newFlow(seed int64, conn int) *flow {
	return &flow{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(conn))),
		conn: conn,
		uid:  pickUser(seed, conn),
	}
}

// login renders the banking login that opens the connection's session.
func (f *flow) login() []byte {
	body := fmt.Sprintf("userid=%d&passwd=%s", f.uid, backend.PasswordFor(f.uid))
	return []byte(fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: load\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
}

// setSession records the session cookie from the login response.
func (f *flow) setSession(r *response) error {
	c := r.setCookie
	if i := bytes.IndexByte(c, ';'); i >= 0 {
		c = c[:i]
	}
	if !bytes.HasPrefix(c, []byte("MY_ID=")) {
		return fmt.Errorf("login: no session cookie (got %q)", r.setCookie)
	}
	f.cookie = append(f.cookie[:0], c...)
	return nil
}

// next appends the connection's next request to buf and reports its
// workload.
func (f *flow) next(buf []byte) (int, []byte) {
	x := f.rng.Intn(100)
	wl := wlBanking
	for x >= mixWeights[wl] {
		x -= mixWeights[wl]
		wl++
	}
	j := f.step[wl]
	f.step[wl]++
	switch wl {
	case wlBanking:
		switch j % 4 {
		case 0:
			return wl, f.get(buf, "/account_summary.php", true)
		case 1:
			return wl, f.get(buf, "/profile.php", true)
		case 2:
			return wl, f.get(buf, "/transfer.php", true)
		default:
			from := f.rng.Intn(2)
			body := fmt.Sprintf("from=%d&to=%d&amount=0.%02d", from, 1-from, 1+f.rng.Intn(99))
			return wl, f.post(buf, "/post_transfer.php", body, true)
		}
	case wlEcom:
		switch j % 4 {
		case 0:
			return wl, f.get(buf, "/index.php", false)
		case 1:
			return wl, f.get(buf, "/browse.php?cat="+ecom.Categories[f.rng.Intn(len(ecom.Categories))], false)
		case 2:
			return wl, f.get(buf, "/search.php?q=kw"+strconv.Itoa(f.rng.Intn(977)), false)
		default:
			return wl, f.get(buf, "/product.php?id="+strconv.Itoa(f.rng.Intn(100000)), false)
		}
	default:
		if j == 0 {
			return wl, f.get(buf, fmt.Sprintf("/t/subscribe?dev=%d&sub=%d", f.uid, f.conn), false)
		}
		switch j % 4 {
		case 1, 2:
			return wl, f.post(buf, "/t/ingest", fmt.Sprintf("dev=%d&f=%04x", f.uid, f.rng.Intn(1<<16)), false)
		case 3:
			return wl, f.get(buf, fmt.Sprintf("/t/poll?dev=%d&sub=%d", f.uid, f.conn), false)
		default:
			return wl, f.get(buf, fmt.Sprintf("/t/status?dev=%d", f.uid), false)
		}
	}
}

func (f *flow) get(buf []byte, path string, session bool) []byte {
	buf = append(buf[:0], "GET "...)
	buf = append(buf, path...)
	buf = append(buf, " HTTP/1.1\r\nHost: load\r\n"...)
	if session {
		buf = append(append(append(buf, "Cookie: "...), f.cookie...), "\r\n"...)
	}
	return append(buf, "\r\n"...)
}

func (f *flow) post(buf []byte, path, body string, session bool) []byte {
	buf = append(buf[:0], "POST "...)
	buf = append(buf, path...)
	buf = append(buf, " HTTP/1.1\r\nHost: load\r\n"...)
	if session {
		buf = append(append(append(buf, "Cookie: "...), f.cookie...), "\r\n"...)
	}
	buf = append(buf, "Content-Length: "...)
	buf = strconv.AppendInt(buf, int64(len(body)), 10)
	buf = append(buf, "\r\n\r\n"...)
	return append(buf, body...)
}

// response is one parsed HTTP/1.1 response. Its slices alias the
// reader's buffers and are valid until the next read, except raw, which
// is only filled when keepRaw is set.
type response struct {
	status    int
	setCookie []byte
	body      []byte
	// raw is the full response with the X-Rhythm-Trace header line
	// removed (the probe compares it across servers).
	raw []byte
}

var errMalformed = errors.New("malformed response")

var (
	hdrContentLength = []byte("content-length:")
	hdrSetCookie     = []byte("set-cookie:")
	hdrTrace         = []byte("x-rhythm-trace:")
)

// readResponse reads one Content-Length framed response into r, reusing
// r's buffers.
func readResponse(br *bufio.Reader, r *response, keepRaw bool) error {
	r.status, r.setCookie = 0, r.setCookie[:0]
	r.raw = r.raw[:0]
	line, err := br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if keepRaw {
		r.raw = append(r.raw, line...)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return errMalformed
	}
	if r.status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return errMalformed
	}
	cl := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if hasPrefixFold(line, hdrTrace) {
			continue
		}
		if keepRaw {
			r.raw = append(r.raw, line...)
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		switch {
		case hasPrefixFold(h, hdrContentLength):
			if cl, err = strconv.Atoi(string(bytes.TrimSpace(h[len(hdrContentLength):]))); err != nil || cl < 0 {
				return errMalformed
			}
		case hasPrefixFold(h, hdrSetCookie):
			r.setCookie = append(r.setCookie, bytes.TrimSpace(h[len(hdrSetCookie):])...)
		}
	}
	if cl < 0 {
		return errMalformed
	}
	if cap(r.body) < cl {
		r.body = make([]byte, cl)
	}
	r.body = r.body[:cl]
	if _, err := io.ReadFull(br, r.body); err != nil {
		return err
	}
	if keepRaw {
		r.raw = append(r.raw, r.body...)
	}
	return nil
}

func hasPrefixFold(b, lowerPrefix []byte) bool {
	return len(b) >= len(lowerPrefix) && bytes.EqualFold(b[:len(lowerPrefix)], lowerPrefix)
}

// bodyPrefix is what a correct page of each workload starts with.
var bodyPrefix = [numWorkloads][]byte{
	[]byte("<!DOCTYPE html"),
	[]byte("<html><head><title>RhythmShop"),
	[]byte("RHYTHM-T "),
}

// errorPageMarker appears near the top of every workload's error page,
// which is served with status 200.
var errorPageMarker = []byte(" - Error</title>")

// validate reports whether r is a correct page of workload wl: status
// 200, the workload's page prefix, and not an error page.
func validate(wl int, r *response) bool {
	if r.status != 200 || !bytes.HasPrefix(r.body, bodyPrefix[wl]) {
		return false
	}
	head := r.body
	if len(head) > 256 {
		head = head[:256]
	}
	return !bytes.Contains(head, errorPageMarker)
}
