package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhythm/internal/fabric"
)

// Server modes of the live workloads.
const (
	modeHost   = "host"
	modeCohort = "cohort"
)

// cohortNodes is the number of rhythmd -worker processes behind the
// cohort-mode frontend.
const cohortNodes = 2

// workerGroups is the global shard-group count every worker is started
// with: the smallest count that gives each node at least one group, so
// both workers receive cohorts (rhythmd's default of one group per
// device would route everything to one of them).
var workerGroups = fabric.CoveringGroups(cohortNodes)

var (
	frontendReady = regexp.MustCompile(`serving .* on http://(\S+) `)
	workerReady   = regexp.MustCompile(`worker node on (\S+) `)
)

const procStartTimeout = 30 * time.Second

// serverSet is one running deployment of a live workload: a host-mode
// rhythmd, or a cohort-mode frontend with its worker processes.
type serverSet struct {
	mode    string
	front   *proc
	workers []*proc
	pprof   string // frontend pprof listener ("" when off)
	setup   time.Duration
}

// serverArgs lists the flags each process of a mode is started with;
// everything else stays at rhythmd's shipped defaults.
func serverArgs(mode string, workerAddrs []string, pprof string) (front []string, worker []string) {
	front = []string{"-addr", "127.0.0.1:0"}
	if mode == modeCohort {
		front = append(front, "-cohort", "-nodes", strings.Join(workerAddrs, ","))
		worker = []string{"-worker", "-addr", "127.0.0.1:0", "-groups", strconv.Itoa(workerGroups)}
	}
	if pprof != "" {
		front = append(front, "-pprof", pprof)
	}
	return front, worker
}

// spawnServers starts a deployment from scratch and times it: setup is
// the wall time from the first spawn to the first correct response.
func spawnServers(bin, mode string, withPprof bool) (*serverSet, error) {
	start := time.Now()
	s := &serverSet{mode: mode}
	var addrs []string
	if mode == modeCohort {
		_, wargs := serverArgs(mode, nil, "")
		s.workers = make([]*proc, cohortNodes)
		errs := make([]error, cohortNodes)
		var wg sync.WaitGroup
		for i := range s.workers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.workers[i], errs[i] = startProc(fmt.Sprintf("worker%d", i), bin, wargs, workerReady, procStartTimeout)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				s.stop()
				return nil, err
			}
			addrs = append(addrs, s.workers[i].addr)
		}
	}
	if withPprof {
		var err error
		if s.pprof, err = freePort(); err != nil {
			s.stop()
			return nil, err
		}
	}
	fargs, _ := serverArgs(mode, addrs, s.pprof)
	var err error
	if s.front, err = startProc("frontend", bin, fargs, frontendReady, procStartTimeout); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.awaitFirstResponse(); err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(start)
	return s, nil
}

// readinessRequest is a read-only page every mode serves; its first
// correct answer ends set-up.
var readinessRequest = []byte("GET /index.php HTTP/1.1\r\nHost: load\r\n\r\n")

func (s *serverSet) awaitFirstResponse() error {
	deadline := time.Now().Add(procStartTimeout)
	var last error
	for time.Now().Before(deadline) {
		var r response
		if last = roundTrip(s.front.addr, readinessRequest, &r); last == nil {
			if validate(wlEcom, &r) {
				return nil
			}
			last = fmt.Errorf("status %d", r.status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s server never answered correctly: %v (%s)", s.mode, last, s.front.lastLines())
}

// procs lists every process of the deployment.
func (s *serverSet) procs() []*proc {
	var ps []*proc
	if s.front != nil {
		ps = append(ps, s.front)
	}
	for _, w := range s.workers {
		if w != nil {
			ps = append(ps, w)
		}
	}
	return ps
}

// stop kills the frontend first, then the workers, and waits for all.
func (s *serverSet) stop() {
	for _, p := range s.procs() {
		p.stop()
	}
}

// cpuSeconds sums user plus system CPU over the deployment.
func (s *serverSet) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range s.procs() {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// flags describes the deployment's command lines for the environment
// block.
func (s *serverSet) flags() []string {
	var out []string
	for _, p := range s.procs() {
		out = append(out, p.role+": rhythmd "+strings.Join(p.args, " "))
	}
	return out
}

// roundTrip sends one request on a fresh connection and reads the reply.
func roundTrip(addr string, req []byte, r *response) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return err
	}
	if _, err := conn.Write(req); err != nil {
		return err
	}
	return readResponse(bufio.NewReader(conn), r, false)
}

// getJSON fetches a rhythm server endpoint and decodes its JSON body.
func getJSON(addr, path string, v any) error {
	var r response
	if err := roundTrip(addr, []byte("GET "+path+" HTTP/1.1\r\nHost: load\r\n\r\n"), &r); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if r.status != 200 {
		return fmt.Errorf("GET %s: status %d", path, r.status)
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}
