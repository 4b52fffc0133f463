package main

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// loadResult tallies the requests a closed-loop run started inside its
// measurement window.
type loadResult struct {
	window time.Duration
	// attempted counts every request started in the window; failed
	// counts non-200 replies (including 503/504 sheds), malformed or
	// invalid pages, and requests lost to a dead connection.
	attempted, ok, failed int64
	invalid, dead         int64
	// lat holds the client-observed latency (request write to full
	// response) of every OK request, in nanoseconds, sorted.
	lat []float64
	// byWorkload counts OK requests per workload.
	byWorkload [numWorkloads]int64
	// subs splits the OK requests by the sub-window they started in.
	subs []subTally
}

// subTally is one sub-window's OK requests and their latencies.
type subTally struct {
	ok  int64
	lat []float64
}

// subWindow is the unit at which the report ranks a measurement window
// by how much CPU the host's hypervisor stole (see quiet). Steal comes
// in bursts shorter than a second, so the unit is short; it still spans
// dozens of requests on the slowest workload.
const subWindow = 250 * time.Millisecond

// loadPlan fixes a closed-loop run: conns keep-alive connections, each
// waiting for its reply before sending again, warm up for warmup and
// then measure for window.
type loadPlan struct {
	addr   string
	seed   int64
	conns  int
	warmup time.Duration
	window time.Duration
	// atStart and atEnd run at the window's edges, atSub at the end of
	// every sub-window (server and host counters).
	atStart, atEnd func()
	atSub          func(i int)
}

// subWindows is how many sub-windows a window holds (a trailing
// fraction joins the last one).
func subWindows(window time.Duration) int {
	n := int(window / subWindow)
	if n < 1 {
		n = 1
	}
	return n
}

// runLoad drives the plan and returns once every connection stopped.
func runLoad(pl loadPlan) loadResult {
	begin := time.Now()
	t0 := begin.Add(pl.warmup)
	t1 := t0.Add(pl.window)
	nsub := subWindows(pl.window)
	parts := make([]loadResult, pl.conns)
	for i := range parts {
		parts[i].subs = make([]subTally, nsub)
	}
	var wg sync.WaitGroup
	for c := 0; c < pl.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driveConn(pl.addr, newFlow(pl.seed, c), t0, t1, &parts[c])
		}(c)
	}
	time.Sleep(time.Until(t0))
	if pl.atStart != nil {
		pl.atStart()
	}
	for i := 0; i < nsub; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i+1) * subWindow)))
		if pl.atSub != nil {
			pl.atSub(i)
		}
	}
	time.Sleep(time.Until(t1))
	if pl.atEnd != nil {
		pl.atEnd()
	}
	wg.Wait()

	res := loadResult{window: pl.window, subs: make([]subTally, nsub)}
	for i := range parts {
		p := &parts[i]
		res.attempted += p.attempted
		res.ok += p.ok
		res.failed += p.failed
		res.invalid += p.invalid
		res.dead += p.dead
		for w := range p.byWorkload {
			res.byWorkload[w] += p.byWorkload[w]
		}
		for j, sub := range p.subs {
			res.subs[j].ok += sub.ok
			res.subs[j].lat = append(res.subs[j].lat, sub.lat...)
			res.lat = append(res.lat, sub.lat...)
		}
	}
	sort.Float64s(res.lat)
	return res
}

// clientConn is one keep-alive connection with an open banking session.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// dialSession connects and logs in; every read and write on the
// connection fails after deadline, so a stuck server cannot hang the run.
func dialSession(addr string, f *flow, r *response, deadline time.Time) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	c := &clientConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	if _, err := conn.Write(f.login()); err != nil {
		conn.Close()
		return nil, err
	}
	if err := readResponse(c.br, r, false); err != nil {
		conn.Close()
		return nil, fmt.Errorf("login: %w", err)
	}
	if r.status != 200 {
		conn.Close()
		return nil, fmt.Errorf("login: status %d", r.status)
	}
	if err := f.setSession(r); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// connGrace is how long past the window a request may still take before
// its connection is given up.
const connGrace = 10 * time.Second

// driveConn runs one connection's closed loop until t1, counting the
// requests started in [t0, t1). A dead connection counts as one failed
// request and is re-dialed.
func driveConn(addr string, f *flow, t0, t1 time.Time, out *loadResult) {
	var (
		r   response
		buf []byte
		c   *clientConn
	)
	defer func() {
		if c != nil {
			c.conn.Close()
		}
	}()
	for {
		now := time.Now()
		if !now.Before(t1) {
			return
		}
		inWindow := !now.Before(t0)
		if c == nil {
			var err error
			if c, err = dialSession(addr, f, &r, t1.Add(connGrace)); err != nil {
				if inWindow {
					out.attempted++
					out.failed++
					out.dead++
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			continue
		}
		var wl int
		wl, buf = f.next(buf)
		start := time.Now()
		_, err := c.conn.Write(buf)
		if err == nil {
			err = readResponse(c.br, &r, false)
		}
		elapsed := time.Since(start)
		inWindow = !start.Before(t0)
		if inWindow {
			out.attempted++
		}
		switch {
		case err != nil:
			c.conn.Close()
			c = nil
			if inWindow {
				out.failed++
				out.dead++
			}
		case !validate(wl, &r):
			if inWindow {
				out.failed++
				out.invalid++
			}
		case inWindow:
			out.ok++
			out.byWorkload[wl]++
			i := int(start.Sub(t0) / subWindow)
			if i >= len(out.subs) {
				i = len(out.subs) - 1
			}
			out.subs[i].ok++
			out.subs[i].lat = append(out.subs[i].lat, float64(elapsed))
		}
	}
}
