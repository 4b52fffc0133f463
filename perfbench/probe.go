package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"time"
)

// probeLen is the number of requests the correctness probe sends after
// its login.
const probeLen = 200

// probeRun is one server's answer to the probe stream: the seeded
// request stream of connection 0, sent on one connection to a server in
// fresh state.
type probeRun struct {
	reqs [][]byte // request bytes as sent, login first
	wls  []int    // workload of each request
	// resps holds each full response minus its X-Rhythm-Trace header,
	// the one line that legitimately differs between servers.
	resps [][]byte
}

func runProbe(addr string, seed int64) (*probeRun, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	f := newFlow(seed, 0)
	pr := &probeRun{}
	var r response
	send := func(wl int, req []byte) error {
		if _, err := conn.Write(req); err != nil {
			return err
		}
		if err := readResponse(br, &r, true); err != nil {
			return fmt.Errorf("probe request %d: %w", len(pr.reqs), err)
		}
		pr.reqs = append(pr.reqs, req)
		pr.wls = append(pr.wls, wl)
		pr.resps = append(pr.resps, append([]byte(nil), r.raw...))
		if !validate(wl, &r) {
			return fmt.Errorf("probe request %d (%s): incorrect page, status %d", len(pr.reqs)-1, requestLine(req), r.status)
		}
		return nil
	}
	if err := send(wlBanking, f.login()); err != nil {
		return nil, err
	}
	if err := f.setSession(&r); err != nil {
		return nil, err
	}
	for len(pr.reqs) <= probeLen {
		wl, req := f.next(nil)
		if err := send(wl, req); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// compareProbes requires byte-identical responses from two servers.
func compareProbes(a, b *probeRun, aName, bName string) error {
	if len(a.resps) != len(b.resps) {
		return fmt.Errorf("probe: %s answered %d requests, %s %d", aName, len(a.resps), bName, len(b.resps))
	}
	for i := range a.resps {
		if !bytes.Equal(a.resps[i], b.resps[i]) {
			return fmt.Errorf("probe: response %d (%s) differs between %s and %s", i, requestLine(a.reqs[i]), aName, bName)
		}
	}
	return nil
}

func requestLine(req []byte) string {
	if i := bytes.IndexByte(req, '\r'); i >= 0 {
		return string(req[:i])
	}
	return string(req)
}
