package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"rhythm"
)

// The paper-batch workload: the paper's saturation regime through the
// public offline API. One child process per set-up builds an
// rhythm.SimServer on Titan B with cohorts of 1024 and 4 contexts and
// serves seeded Table-2 banking batches through Serve.
const (
	batchCohortSize = 1024
	batchContexts   = 4
	// batchSize requests go into each Serve call: enough to keep every
	// context busy with full cohorts.
	batchSize = 8192
	// rssCalls is the fixed amount of work after which the batch
	// process's peak RSS is read. Every call allocates about 300 MB that
	// the collector reclaims only every few calls, so the peak at the end
	// of a timed window would grow with the number of calls that fit in
	// it: a faster server would look hungrier.
	rssCalls = 4
	// quietCalls is the steal percentile up to which Serve calls count
	// as quiet: a window holds only about eight calls, so half of them.
	quietCalls = 50
)

func batchOptions(seed int64) rhythm.Options {
	return rhythm.Options{
		Platform:   rhythm.TitanB,
		CohortSize: batchCohortSize,
		MaxCohorts: batchContexts,
		Seed:       seed,
	}
}

// batchCall is one measured Serve call.
type batchCall struct {
	WallS, CPUS float64
	// StealTicks and HostTicks are the host's stolen and total CPU
	// ticks during the call.
	StealTicks, HostTicks int64
	Requests              int
	Completed             uint64
	// Failed counts parse errors and validation failures; ErrorPages
	// counts banking error pages (rhythm.Stats.Errors), which the seeded
	// Table-2 mix provokes and which are served as correct responses.
	Failed     uint64
	ErrorPages uint64
	Validated  uint64
}

// batchLoop is one measured window of Serve calls.
type batchLoop struct {
	Calls   []batchCall
	Mallocs uint64
}

// rate is the loop's requests per wall second of Serve.
func (l batchLoop) rate() float64 {
	reqs, wall := 0, 0.0
	for _, c := range l.Calls {
		reqs += c.Requests
		wall += c.WallS
	}
	return ratio(float64(reqs), wall)
}

// batchChildResult is what the child prints as its last line.
type batchChildResult struct {
	// First is the first Serve call on the fresh server: it is not
	// timed, and its virtual numbers must repeat exactly per seed.
	FirstVirtThroughput float64
	FirstVirtP99Ms      float64
	FirstValidationFail uint64
	Untraced, Traced    batchLoop
	MeanOccupancy       float64
	DeviceUtilization   float64
	// PeakRSSMB is VmHWM after rssCalls Serve calls; EndPeakRSSMB is
	// VmHWM at the end of the run.
	PeakRSSMB, EndPeakRSSMB float64
}

var batchReady = regexp.MustCompile(`^(batch) ready$`)

const batchResultPrefix = "batch result "

// runBatchChild is the child process's main: set up, report ready, and
// unless setupOnly, serve and print the result line.
func runBatchChild(args []string) error {
	fs := flag.NewFlagSet("batch-child", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measurement window")
	setupOnly := fs.Bool("setup-only", false, "exit once ready")
	profile := fs.String("profile", "", "run a traced window with a CPU profile written here")
	spansPath := fs.String("spans", "", "span file of the traced window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	srv := rhythm.NewSimServer(batchOptions(*seed))
	next := srv.GenerateMixed(batchSize)
	fmt.Println("batch ready")
	if *setupOnly {
		return nil
	}
	var res batchChildResult
	calls := 0
	var rssErr error
	served := func() {
		calls++
		if calls == rssCalls {
			res.PeakRSSMB, rssErr = readPeakRSSMB("/proc/self/status", "batch")
		}
	}
	first := srv.Serve(next)
	served()
	res.FirstVirtThroughput = first.Throughput
	res.FirstVirtP99Ms = float64(first.P99Latency) / 1e6
	res.FirstValidationFail = first.ValidationFailures

	window := time.Duration(*seconds) * time.Second
	log := newSpanLog(spanLimit)
	loop := func() (batchLoop, rhythm.Stats) {
		var l batchLoop
		var last rhythm.Stats
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		end := time.Now().Add(window)
		for time.Now().Before(end) {
			g0 := time.Now()
			reqs := srv.GenerateMixed(batchSize)
			h0, c0, t0 := readHostTicks(), cpuSelf(), time.Now()
			st := srv.Serve(reqs)
			t1, c1, h1 := time.Now(), cpuSelf(), readHostTicks()
			served()
			call := len(l.Calls) + 1
			log.add("rhythm.SimServer.GenerateMixed", 0, call, g0, t0)
			log.add("rhythm.SimServer.Serve", 0, call, t0, t1)
			l.Calls = append(l.Calls, batchCall{
				WallS: t1.Sub(t0).Seconds(), CPUS: c1 - c0, Requests: len(reqs),
				StealTicks: h1.steal - h0.steal, HostTicks: h1.total - h0.total,
				Completed: st.Completed, Validated: st.Validated,
				Failed: st.ParseErrors + st.ValidationFailures, ErrorPages: st.Errors,
			})
			last = st
		}
		runtime.ReadMemStats(&ms)
		l.Mallocs = ms.Mallocs - mallocs
		return l, last
	}
	var last rhythm.Stats
	res.Untraced, last = loop()
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		log = newSpanLog(spanLimit)
		res.Traced, last = loop()
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
		if err := log.writeChrome(*spansPath); err != nil {
			return err
		}
	}
	// A short window may end before the fixed point; serve on, unmeasured.
	for calls < rssCalls {
		srv.Serve(srv.GenerateMixed(batchSize))
		served()
	}
	res.MeanOccupancy = last.MeanOccupancy
	res.DeviceUtilization = last.DeviceUtilization
	if rssErr != nil {
		return rssErr
	}
	var err error
	if res.EndPeakRSSMB, err = readPeakRSSMB("/proc/self/status", "batch"); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(batchResultPrefix + string(b))
	return nil
}

// cpuSelf is the process's user plus system CPU seconds so far.
func cpuSelf() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runBatch measures paper-batch.
func runBatch(cfg runConfig) *report {
	rep := newReport("paper-batch", cfg.seed, cfg.seconds, cfg.traced)
	rep.env["server"] = fmt.Sprintf("in-process rhythm.NewSimServer(Platform TitanB, CohortSize %d, MaxCohorts %d, Seed %d) in a child process; %d requests per Serve call",
		batchCohortSize, batchContexts, cfg.seed, batchSize)
	childArgs := []string{"-batch-child", "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.windowSeconds())}
	rep.env["conns"] = 0
	rep.env["server_flags"] = []string{"batch: perfbench " + strings.Join(childArgs, " ")}
	var setups []float64
	setupRuns := setupSamples - 1
	if cfg.traced {
		setupRuns = 0
	}
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		p, err := startProc("batch", cfg.self, append(childArgs, "-setup-only"), batchReady, procStartTimeout)
		if err != nil {
			rep.fail("%v", err)
			return rep
		}
		setups = append(setups, time.Since(start).Seconds())
		p.stop()
	}
	args := childArgs
	base := fmt.Sprintf("paper-batch-seed%d", cfg.seed)
	profilePath := filepath.Join(cfg.outDir, base+"-batch.pprof")
	if cfg.traced {
		args = append(args, "-profile", profilePath, "-spans", filepath.Join(cfg.outDir, base+"-spans.json"))
	}
	start := time.Now()
	p, err := startProc("batch", cfg.self, args, batchReady, procStartTimeout)
	if err != nil {
		rep.fail("%v", err)
		return rep
	}
	setups = append(setups, time.Since(start).Seconds())
	werr := p.wait(time.Duration(3*cfg.seconds+60) * time.Second)
	line := p.lineWithPrefix(batchResultPrefix)
	if werr != nil || line == "" {
		rep.fail("batch child: %v (%s)", werr, p.lastLines())
		return rep
	}
	var res batchChildResult
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, batchResultPrefix)), &res); err != nil {
		rep.fail("batch child result: %v", err)
		return rep
	}
	if res.FirstValidationFail > 0 {
		rep.fail("first batch: %d validation failures", res.FirstValidationFail)
	}
	measured := res.Untraced
	if cfg.traced {
		measured = res.Traced
	}
	reqs, wall, cpu := 0, 0.0, 0.0
	var walls, rates, cpus []float64
	var steal []stealDelta
	var validated, errorPages uint64
	for _, l := range []batchLoop{res.Untraced, res.Traced} {
		for _, c := range l.Calls {
			rep.attempted += int64(c.Requests)
			rep.failed += int64(c.Failed) + int64(c.Requests) - int64(c.Completed)
			validated += c.Validated
			errorPages += c.ErrorPages
		}
	}
	for _, c := range measured.Calls {
		reqs += c.Requests
		wall += c.WallS
		cpu += c.CPUS
		walls = append(walls, c.WallS*1e3)
		rates = append(rates, float64(c.Requests)/c.WallS)
		cpus = append(cpus, c.CPUS*1e6/float64(c.Requests))
		steal = append(steal, stealDelta{c.StealTicks, c.HostTicks})
	}
	if rep.failed > 0 {
		rep.fail("%d of %d requests failed or failed validation", rep.failed, rep.attempted)
	}
	if reqs == 0 {
		rep.fail("no Serve call completed")
		return rep
	}
	rep.notes = append(rep.notes, fmt.Sprintf("validator: %d sampled responses checked, 0 failures allowed", validated),
		fmt.Sprintf("%d responses were banking error pages (rhythm.Stats.Errors), counted as served", errorPages))
	if !cfg.traced {
		sel := quiet(steal, quietCalls)
		chosen := quietBase("Serve calls", sel, steal)
		rep.e2e("throughput_rps", median(pick(rates, sel)), "1/s", fmt.Sprintf("requests per wall second of Serve, median %s; %d requests over %.3f s in %d calls",
			chosen, reqs, wall, len(measured.Calls)))
		rep.e2e("latency_p50_ms", median(pick(walls, sel)), "ms", fmt.Sprintf("wall time of one Serve call of %d requests, median %s: %s",
			batchSize, chosen, fmtList(walls, "%.1f")))
		rep.e2e("cpu_us_per_req", median(pick(cpus, sel)), "us", fmt.Sprintf("process CPU during Serve per request, median %s; %.2f s over %d requests",
			chosen, cpu, reqs))
		rep.e2e("rss_peak_mb", res.PeakRSSMB, "MB", fmt.Sprintf("VmHWM of the batch process after its first %d Serve calls (%d requests); %.1f MB at the end of the run",
			rssCalls, rssCalls*batchSize, res.EndPeakRSSMB))
		rep.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups, spawn to Serve start (NewSimServer and the first batch's generation): %s", len(setups), fmtList(setups, "%.4f")))
		rep.e2e("virt_throughput_rps", res.FirstVirtThroughput, "1/s", "modelled, first Serve call on a fresh server; repeats exactly per seed")
		rep.e2e("virt_latency_p99_ms", res.FirstVirtP99Ms, "ms", "modelled, first Serve call on a fresh server; repeats exactly per seed")
		return rep
	}

	thr, thrU := measured.rate(), res.Untraced.rate()
	rep.layer("trace.overhead_ratio", ratio(thr, thrU), "ratio", fmt.Sprintf("traced %.1f req/s over untraced %.1f req/s", thr, thrU))
	rep.layer("pipeline.occupancy_mean", res.MeanOccupancy, "count", "rhythm.Stats.MeanOccupancy after the traced window")
	rep.layer("pipeline.device_utilization", res.DeviceUtilization, "ratio", "rhythm.Stats.DeviceUtilization after the traced window")
	rep.layer("runtime.allocs_per_req", ratio(float64(measured.Mallocs), float64(reqs)), "allocs/req", fmt.Sprintf("MemStats.Mallocs delta %d over %d requests", measured.Mallocs, reqs))
	rep.layer("virt_throughput_rps", res.FirstVirtThroughput, "1/s", "modelled, first Serve call on a fresh server")
	rep.layer("virt_latency_p99_ms", res.FirstVirtP99Ms, "ms", "modelled, first Serve call on a fresh server")
	data, err := os.ReadFile(profilePath)
	if err != nil {
		rep.fail("batch profile: %v", err)
		return rep
	}
	samples, err := parseProfile(data)
	if err != nil {
		rep.fail("batch profile: %v", err)
		return rep
	}
	sh := attributeSamples(samples, nil)
	reportShares(rep, []shareSource{{sh, cpu, fmt.Sprintf("batch process profile, %d samples", sh.samples)}})
	unattributed := sh.share(bucketGC) + sh.share(bucketSched) + sh.share(bucketOther)
	perReqUs := wall * 1e6 / float64(reqs)
	rep.layer("unattributed_us", perReqUs*unattributed, "us", fmt.Sprintf("Serve wall %.2f us/req times the %.4f profile share charged to no layer", perReqUs, unattributed))
	rep.notes = append(rep.notes, "span file and profile written to "+cfg.outDir)
	return rep
}
