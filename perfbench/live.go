package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rhythm"
)

// runConfig is what every workload run gets from the command line.
type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	rhythmd string // path of the rhythmd binary built from this checkout
	self    string // path of this benchmark binary (paper-batch child)
	outDir  string // span files and profiles of traced runs
	conns   int
}

const (
	// setupSamples is how many times a run sets its servers up; setup_s
	// is the median.
	setupSamples = 7
	// liveWarmup is the load applied before a measurement window opens.
	liveWarmup = time.Second
	// rhythmdCohortSize is rhythmd's default -cohort-size.
	rhythmdCohortSize = 128
	// quietSubWindows is the steal percentile up to which sub-windows
	// count as quiet: the quietest quarter (and every sub-window within a
	// tick of it) still holds thousands of requests.
	quietSubWindows = 25
)

// liveStats is the /v1/stats document of either mode: the cohort-mode
// counters (zero in host mode) plus the host-mode error counter.
type liveStats struct {
	rhythm.CohortServerStats
	Errors uint64 `json:"errors"`
}

func (s *serverSet) liveStats() (liveStats, error) {
	var st liveStats
	err := getJSON(s.front.addr, rhythm.StatsPathV1, &st)
	return st, err
}

// checkServer fails the run on any kernel error, lost unit or host
// execution error the server counted so far.
func checkServer(rep *report, s *serverSet, when string) {
	st, err := s.liveStats()
	if err != nil {
		rep.fail("%s: %s stats: %v", when, s.mode, err)
		return
	}
	if st.KernelErrors > 0 {
		rep.fail("%s: %s server counted %d kernel errors", when, s.mode, st.KernelErrors)
	}
	if st.LostUnits > 0 {
		rep.fail("%s: %s server counted %d lost units", when, s.mode, st.LostUnits)
	}
	if st.Errors > 0 {
		rep.fail("%s: %s server counted %d failed requests", when, s.mode, st.Errors)
	}
}

// probeBoth runs the correctness probe against fresh host and cohort
// deployments and requires identical bytes. first is the already
// running fresh deployment of the measured mode; it is left running.
// The measured mode's probe is returned: its stream feeds the replay.
func probeBoth(cfg runConfig, rep *report, first *serverSet) *probeRun {
	mine, err := runProbe(first.front.addr, cfg.seed)
	if err != nil {
		rep.fail("probe against %s: %v", first.mode, err)
		return nil
	}
	checkServer(rep, first, "probe")
	otherMode := modeCohort
	if first.mode == modeCohort {
		otherMode = modeHost
	}
	other, err := spawnServers(cfg.rhythmd, otherMode, false)
	if err != nil {
		rep.fail("probe: %v", err)
		return nil
	}
	defer other.stop()
	theirs, err := runProbe(other.front.addr, cfg.seed)
	if err != nil {
		rep.fail("probe against %s: %v", otherMode, err)
		return nil
	}
	checkServer(rep, other, "probe")
	if err := compareProbes(mine, theirs, first.mode, otherMode); err != nil {
		rep.fail("%v", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("probe: %d responses byte-identical between host and cohort mode (X-Rhythm-Trace ignored)", len(mine.resps)))
	return mine
}

// windowCounters are the server-side numbers read at a window's edges.
type windowCounters struct {
	cpu   float64
	procs []float64 // per-process CPU seconds, frontend first
	stats liveStats
}

func readCounters(s *serverSet) (windowCounters, error) {
	var wc windowCounters
	for _, p := range s.procs() {
		c, err := p.cpuSeconds()
		if err != nil {
			return wc, err
		}
		wc.procs = append(wc.procs, c)
		wc.cpu += c
	}
	var err error
	wc.stats, err = s.liveStats()
	return wc, err
}

// windowSeconds is the length of each measurement window: the whole
// run for an end-to-end run, half of it for each of a traced run's two
// windows (untraced and traced), so both kinds of run take about as long.
func (c runConfig) windowSeconds() int {
	if !c.traced {
		return c.seconds
	}
	if c.seconds < 2 {
		return 1
	}
	return c.seconds / 2
}

// runLive measures host-mix (mode host) or cohort-mix (mode cohort).
func runLive(cfg runConfig, workload, mode string) *report {
	rep := newReport(workload, cfg.seed, cfg.seconds, cfg.traced)
	rep.env["conns"] = cfg.conns
	rep.env["load"] = "closed loop, one process, keep-alive connections waiting for each reply"
	if cfg.traced {
		runLiveTraced(cfg, rep, mode)
	} else {
		runLiveE2E(cfg, rep, mode)
	}
	return rep
}

func runLiveE2E(cfg runConfig, rep *report, mode string) {
	var setups []float64
	first, err := spawnServers(cfg.rhythmd, mode, false)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	setups = append(setups, first.setup.Seconds())
	probeBoth(cfg, rep, first)
	first.stop()
	if !rep.correct() {
		return
	}
	for len(setups) < setupSamples-1 {
		s, err := spawnServers(cfg.rhythmd, mode, false)
		if err != nil {
			rep.fail("%v", err)
			return
		}
		setups = append(setups, s.setup.Seconds())
		s.stop()
	}
	s, err := spawnServers(cfg.rhythmd, mode, false)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	defer s.stop()
	setups = append(setups, s.setup.Seconds())
	rep.env["server_flags"] = s.flags()

	var (
		before, after windowCounters
		cpuAt         []float64
		ticks         []hostTicks
		cerr          error
	)
	lr := runLoad(loadPlan{
		addr: s.front.addr, seed: cfg.seed, conns: cfg.conns,
		warmup: liveWarmup, window: time.Duration(cfg.seconds) * time.Second,
		atStart: func() {
			ticks = append(ticks, readHostTicks())
			before, cerr = readCounters(s)
		},
		atSub: func(int) {
			ticks = append(ticks, readHostTicks())
			c, err := s.cpuSeconds()
			if err != nil && cerr == nil {
				cerr = err
			}
			cpuAt = append(cpuAt, c)
		},
		atEnd: func() {
			if cerr == nil {
				after, cerr = readCounters(s)
			}
		},
	})
	if cerr != nil {
		rep.fail("server counters: %v", cerr)
		return
	}
	checkServer(rep, s, "load")
	steal := stealDeltas(ticks)
	sel := quiet(steal, quietSubWindows)
	reportLoad(rep, lr, sel, steal)
	if !rep.correct() {
		return
	}
	var quietCPU float64
	var quietOK int64
	prev := before.cpu
	for i, c := range cpuAt {
		if contains(sel, i) {
			quietCPU += c - prev
			quietOK += lr.subs[i].ok
		}
		prev = c
	}
	var perProc []string
	for i, p := range s.procs() {
		perProc = append(perProc, fmt.Sprintf("%s %.2f", p.role, after.procs[i]-before.procs[i]))
	}
	rep.e2e("cpu_us_per_req", ratio(quietCPU*1e6, float64(quietOK)), "us", fmt.Sprintf("server user+system CPU per OK request %s; window CPU s: %s",
		quietBase(subWindow.String()+" sub-windows", sel, steal), strings.Join(perProc, ", ")))
	var rss float64
	var rssParts []string
	for _, p := range s.procs() {
		m, err := p.peakRSSMB()
		if err != nil {
			rep.fail("rss: %v", err)
			return
		}
		rss += m
		rssParts = append(rssParts, fmt.Sprintf("%s %.1f", p.role, m))
	}
	rep.e2e("rss_peak_mb", rss, "MB", "sum of VmHWM: "+strings.Join(rssParts, ", "))
	rep.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, spawn to first correct response: %s", len(setups), fmtList(setups, "%.4f")))
}

// reportLoad adds the client-side end-to-end metrics of a window, taken
// over the quiet sub-windows sel.
func reportLoad(rep *report, lr loadResult, sel []int, steal []stealDelta) {
	rep.attempted += lr.attempted
	rep.failed += lr.failed
	if lr.failed > 0 {
		rep.fail("%d of %d requests failed (%d incorrect pages or non-200, %d dead connections)", lr.failed, lr.attempted, lr.invalid, lr.dead)
	}
	if lr.ok == 0 {
		rep.fail("no request succeeded")
		return
	}
	var ok int64
	var lat []float64
	for _, i := range sel {
		ok += lr.subs[i].ok
		lat = append(lat, lr.subs[i].lat...)
	}
	sort.Float64s(lat)
	secs := lr.window.Seconds()
	quietSecs := float64(len(sel)) * subWindow.Seconds()
	rep.e2e("throughput_rps", float64(ok)/quietSecs, "1/s", fmt.Sprintf("%d OK responses in %.2f s %s; whole window: %d OK in %.2f s (%.1f/s); banking %d, ecom %d, telemetry %d",
		ok, quietSecs, quietBase(subWindow.String()+" sub-windows", sel, steal), lr.ok, secs, float64(lr.ok)/secs,
		lr.byWorkload[wlBanking], lr.byWorkload[wlEcom], lr.byWorkload[wlTelemetry]))
	n := len(lat)
	rep.e2e("latency_p50_ms", percentile(lat, 50)/1e6, "ms", fmt.Sprintf("n=%d requests started in the %d quiet sub-windows", n, len(sel)))
	rep.e2e("latency_p99_ms", percentile(lat, 99)/1e6, "ms", percentileBase(n, 99)+"; not gated: its run-to-run spread exceeds the bound")
	if p := tailPercentile(n); p > 0 && p != 99 {
		rep.e2e(fmt.Sprintf("latency_p%g_ms", p), percentile(lat, p)/1e6, "ms", "highest supported percentile; "+percentileBase(n, p))
	}
}

// contains reports whether the sorted index list holds i.
func contains(sorted []int, i int) bool {
	j := sort.SearchInts(sorted, i)
	return j < len(sorted) && sorted[j] == i
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runLiveTraced is the per-layer run: one deployment with the pprof side
// listener, an untraced window, then a traced window during which the
// server's CPU profile, request spans, stats and allocation counters are
// captured; then the in-process replay of the probe stream.
func runLiveTraced(cfg runConfig, rep *report, mode string) {
	s, err := spawnServers(cfg.rhythmd, mode, true)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	defer s.stop()
	rep.env["server_flags"] = s.flags()
	pr := probeBoth(cfg, rep, s)
	if !rep.correct() {
		return
	}
	secs := cfg.windowSeconds()
	window := time.Duration(secs) * time.Second
	untraced := runLoad(loadPlan{addr: s.front.addr, seed: cfg.seed, conns: cfg.conns, warmup: liveWarmup, window: window})

	var (
		before, after     windowCounters
		mallocsBefore     uint64
		mallocsAfter      uint64
		cerr, merr        error
		profile, traceDoc []byte
		perr, terr        error
		captures          sync.WaitGroup
	)
	traced := runLoad(loadPlan{
		addr: s.front.addr, seed: cfg.seed, conns: cfg.conns,
		warmup: 200 * time.Millisecond, window: window,
		atStart: func() {
			captures.Add(2)
			go func() {
				defer captures.Done()
				profile, perr = httpGet(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", s.pprof, secs))
			}()
			go func() {
				defer captures.Done()
				var r response
				terr = roundTrip(s.front.addr, []byte(fmt.Sprintf("GET %s?secs=%d HTTP/1.1\r\nHost: load\r\n\r\n", rhythm.TracePathV1, secs)), &r)
				if terr == nil && r.status != 200 {
					terr = fmt.Errorf("status %d", r.status)
				}
				traceDoc = append([]byte(nil), r.body...)
			}()
			before, cerr = readCounters(s)
			mallocsBefore, merr = heapMallocs(s.pprof)
		},
		atEnd: func() {
			if cerr == nil {
				after, cerr = readCounters(s)
			}
			if merr == nil {
				mallocsAfter, merr = heapMallocs(s.pprof)
			}
		},
	})
	captures.Wait()
	for _, e := range []struct {
		what string
		err  error
	}{{"server counters", cerr}, {"heap profile", merr}, {"cpu profile", perr}, {"trace capture", terr}} {
		if e.err != nil {
			rep.fail("%s: %v", e.what, e.err)
		}
	}
	if !rep.correct() {
		return
	}
	checkServer(rep, s, "traced load")
	rep.attempted = untraced.attempted + traced.attempted
	rep.failed = untraced.failed + traced.failed
	if rep.failed > 0 {
		rep.fail("%d of %d requests failed", rep.failed, rep.attempted)
	}
	if untraced.ok == 0 || traced.ok == 0 {
		rep.fail("no request succeeded")
		return
	}
	thrU := float64(untraced.ok) / untraced.window.Seconds()
	thrT := float64(traced.ok) / traced.window.Seconds()
	rep.layer("trace.overhead_ratio", thrT/thrU, "ratio", fmt.Sprintf("traced %.1f req/s over untraced %.1f req/s", thrT, thrU))

	base := fmt.Sprintf("%s-seed%d", rep.workload, cfg.seed)
	writeOut(rep, cfg.outDir, base+"-server.pprof", profile)
	writeOut(rep, cfg.outDir, base+"-server-trace.json", traceDoc)

	// S: stats deltas and server spans over the traced window.
	d := statsDelta(before.stats, after.stats)
	srv, err := parseServerTrace(traceDoc)
	if err != nil {
		rep.fail("trace capture: %v", err)
		return
	}
	rep.layer("rhythm.classify_us", srv.meanUs("classify"), "us", srv.base("classify"))
	rep.layer("rhythm.write_us", srv.meanUs("write"), "us", srv.base("write"))
	rep.layer("runtime.allocs_per_req", ratio(float64(mallocsAfter-mallocsBefore), float64(traced.ok)), "allocs/req",
		fmt.Sprintf("frontend Mallocs delta %d over %d OK (heap profile)", mallocsAfter-mallocsBefore, traced.ok))
	clientMeanUs := mean(traced.lat) / 1e3
	rep.layer("unattributed_us", clientMeanUs-srv.meanRequestUs(), "us",
		fmt.Sprintf("client mean latency %.1f us minus mean server span sum %.1f us over %d captured requests", clientMeanUs, srv.meanRequestUs(), len(srv.perReq)))

	if mode == modeCohort {
		reportCohortStats(rep, d, srv)
	}

	// R: replay of the probe stream in process.
	log := newSpanLog(spanLimit)
	host := hostReplay(pr.reqs, replayBudget, log)
	reportHostReplay(rep, host)
	frontCPU := after.procs[0] - before.procs[0]
	workerCPU := after.cpu - before.cpu - frontCPU

	// P: CPU attribution.
	samples, err := parseProfile(profile)
	if err != nil {
		rep.fail("cpu profile: %v", err)
		return
	}
	front := attributeSamples(samples, nil)
	if mode == modeCohort {
		occ := ratio(float64(d.RequestsBatched), float64(d.CohortsFormed))
		fr, err := fabricReplay(pr.reqs, occ, replayBudget, log, filepath.Join(cfg.outDir, base+"-replay.pprof"))
		if err != nil {
			rep.fail("fabric replay: %v", err)
			return
		}
		reportFabricReplay(rep, fr)
		reportShares(rep, []shareSource{
			{front, frontCPU, fmt.Sprintf("frontend profile, %d samples", front.samples)},
			{fr.workerShares, workerCPU, fmt.Sprintf("worker CPU distributed by the replay profile's worker-side samples, %d samples", fr.workerShares.samples)},
		})
	} else {
		reportShares(rep, []shareSource{{front, frontCPU, fmt.Sprintf("server profile, %d samples", front.samples)}})
	}
	reportSelfTimes(rep, log)
	if err := log.writeChrome(filepath.Join(cfg.outDir, base+"-spans.json")); err != nil {
		rep.fail("span file: %v", err)
	}
	rep.notes = append(rep.notes, "span file, server trace and profiles written to "+cfg.outDir)
}

func writeOut(rep *report, dir, name string, data []byte) {
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		rep.fail("write %s: %v", name, err)
	}
}

func httpGet(url string) ([]byte, error) {
	c := &http.Client{Timeout: 120 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

var mallocsLine = regexp.MustCompile(`(?m)^# Mallocs = (\d+)$`)

// heapMallocs reads the cumulative malloc count from the server's heap
// profile (debug=1 appends runtime.MemStats).
func heapMallocs(pprofAddr string) (uint64, error) {
	b, err := httpGet(fmt.Sprintf("http://%s/debug/pprof/heap?debug=1", pprofAddr))
	if err != nil {
		return 0, err
	}
	m := mallocsLine.FindSubmatch(b)
	if m == nil {
		return 0, fmt.Errorf("no Mallocs line in heap profile")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

// statsDelta subtracts the cumulative counters the report uses.
func statsDelta(a, b liveStats) liveStats {
	var d liveStats
	d.Served = b.Served - a.Served
	d.CohortsFormed = b.CohortsFormed - a.CohortsFormed
	d.CohortsTimedOut = b.CohortsTimedOut - a.CohortsTimedOut
	d.RequestsBatched = b.RequestsBatched - a.RequestsBatched
	d.KernelErrors = b.KernelErrors - a.KernelErrors
	d.DeviceRetries = b.DeviceRetries - a.DeviceRetries
	d.NodeRetries = b.NodeRetries - a.NodeRetries
	d.LinkSheds = b.LinkSheds - a.LinkSheds
	d.Device.Launches = b.Device.Launches - a.Device.Launches
	d.Device.BusyTime = b.Device.BusyTime - a.Device.BusyTime
	d.Device.IdealTxns = b.Device.IdealTxns - a.Device.IdealTxns
	d.Device.Transactions = b.Device.Transactions - a.Device.Transactions
	d.WorkloadSheds = map[string]uint64{}
	for k, v := range b.WorkloadSheds {
		d.WorkloadSheds[k] = v - a.WorkloadSheds[k]
	}
	return d
}

func reportCohortStats(rep *report, d liveStats, srv *serverTrace) {
	formed := float64(d.CohortsFormed)
	batched := float64(d.RequestsBatched)
	occ := ratio(batched, formed)
	var sheds uint64
	for _, v := range d.WorkloadSheds {
		sheds += v
	}
	rep.layer("cohort.admit_queue_us", srv.meanUs("admit-queue"), "us", srv.base("admit-queue"))
	fw := srv.durs["formation-wait"]
	rep.layer("cohort.formation_wait_ms_mean", mean(fw)/1e3, "ms", srv.base("formation-wait"))
	rep.layer("cohort.formation_wait_ms_p99", percentile(fw, 99)/1e3, "ms",
		percentileBase(len(fw), 99)+" server \"formation-wait\" spans")
	rep.layer("cohort.occupancy_mean", occ, "count", fmt.Sprintf("%d requests batched over %d cohorts", d.RequestsBatched, d.CohortsFormed))
	rep.layer("cohort.fill_ratio", occ/rhythmdCohortSize, "ratio", fmt.Sprintf("occupancy %.2f over cohort size %d", occ, rhythmdCohortSize))
	rep.layer("cohort.timeout_share", ratio(float64(d.CohortsTimedOut), formed), "ratio", fmt.Sprintf("%d timed out of %d formed", d.CohortsTimedOut, d.CohortsFormed))
	rep.layer("cohort.shed_ratio", ratio(float64(sheds), float64(d.Served)), "ratio", fmt.Sprintf("%d shed of %d served", sheds, d.Served))
	rep.layer("fabric.node_retries", float64(d.NodeRetries), "count", "stats delta over the traced window")
	rep.layer("fabric.link_sheds", float64(d.LinkSheds), "count", "stats delta over the traced window")
	rep.layer("cluster.kernel_errors", float64(d.KernelErrors), "count", "stats delta over the traced window")
	rep.layer("cluster.device_retries", float64(d.DeviceRetries), "count", "stats delta over the traced window")
	rep.layer("simt.launches_per_req", ratio(float64(d.Device.Launches), batched), "launches/req", fmt.Sprintf("%d launches over %d batched requests (virtual)", d.Device.Launches, d.RequestsBatched))
	rep.layer("simt.device_us_per_req", ratio(float64(d.Device.BusyTime)/1e3, batched), "us", fmt.Sprintf("%.0f us modelled device busy time over %d batched requests (virtual)", float64(d.Device.BusyTime)/1e3, d.RequestsBatched))
	rep.layer("simt.coalescing_ratio", ratio(float64(d.Device.IdealTxns), float64(d.Device.Transactions)), "ratio", fmt.Sprintf("%d ideal over %d actual transactions (virtual)", d.Device.IdealTxns, d.Device.Transactions))
}

// serverTrace is the request-span sample a /v1/trace capture returned.
type serverTrace struct {
	durs   map[string][]float64 // span name -> durations in microseconds
	perReq map[int]float64      // request -> summed span microseconds
}

func parseServerTrace(doc []byte) (*serverTrace, error) {
	var d struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, err
	}
	st := &serverTrace{durs: map[string][]float64{}, perReq: map[int]float64{}}
	for _, e := range d.TraceEvents {
		if e.Ph != "X" || e.Pid != 1 {
			continue
		}
		name := e.Name
		if strings.HasPrefix(name, "stage-") {
			name = "stage"
		}
		st.durs[name] = append(st.durs[name], e.Dur)
		st.perReq[e.Tid] += e.Dur
	}
	for _, v := range st.durs {
		sort.Float64s(v)
	}
	return st, nil
}

func (st *serverTrace) meanUs(name string) float64 { return mean(st.durs[name]) }

func (st *serverTrace) base(name string) string {
	return fmt.Sprintf("mean of %d server %q spans in the traced window (/v1/trace)", len(st.durs[name]), name)
}

func (st *serverTrace) meanRequestUs() float64 {
	var sum float64
	for _, v := range st.perReq {
		sum += v
	}
	return ratio(sum, float64(len(st.perReq)))
}
