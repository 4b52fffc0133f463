package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"rhythm"
	"rhythm/internal/cluster"
	"rhythm/internal/fabric"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

const (
	// replayBudget bounds each replay pass; the probe stream repeats
	// until it is spent (at least once).
	replayBudget = 1500 * time.Millisecond
	// spanLimit caps the spans a run keeps for its span file.
	spanLimit = 20000
	// Session-array geometry of the servers (rhythmd's defaults), so
	// replayed cookies resolve exactly as they did live.
	sessionBuckets        = 256
	sessionNodesPerBucket = (1<<16)/256*4 + 4
)

// hostResult holds per-call timings of the host path replay.
type hostResult struct {
	parseNs, classifyNs []float64
	execUs              [numWorkloads][]float64
	requests, failed    int
}

// hostReplay times httpx.ParseInto, service.Registry.Classify and
// service.Registry.ExecuteHost on the probe stream against fresh state.
func hostReplay(reqs [][]byte, budget time.Duration, log *spanLog) hostResult {
	reg := rhythm.DefaultRegistry()
	sessions := session.NewArray(sessionBuckets, sessionNodesPerBucket)
	bes := reg.NewBackends()
	var (
		res hostResult
		req httpx.Request
	)
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, raw := range reqs {
			res.requests++
			t0 := time.Now()
			err := httpx.ParseInto(raw, &req)
			t1 := time.Now()
			if err != nil {
				res.failed++
				continue
			}
			t, ok := reg.Classify(&req)
			t2 := time.Now()
			if !ok {
				res.failed++
				continue
			}
			_, failed := reg.ExecuteHost(t, &req, sessions, bes)
			t3 := time.Now()
			if failed {
				res.failed++
			}
			wl := wlIndex(reg.WorkloadOf(t).Name())
			res.parseNs = append(res.parseNs, float64(t1.Sub(t0)))
			res.classifyNs = append(res.classifyNs, float64(t2.Sub(t1)))
			res.execUs[wl] = append(res.execUs[wl], float64(t3.Sub(t2))/1e3)
			root := log.add("replay.host_request", 0, res.requests, t0, t3)
			if root != 0 {
				log.add("httpx.ParseInto", root, res.requests, t0, t1)
				log.add("service.Classify", root, res.requests, t1, t2)
				log.add("service.ExecuteHost."+workloadNames[wl], root, res.requests, t2, t3)
			}
		}
	}
	return res
}

func wlIndex(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return wlBanking
}

func reportHostReplay(rep *report, h hostResult) {
	base := fmt.Sprintf("median of %d replayed calls", len(h.parseNs))
	rep.layer("httpx.parse_ns", median(h.parseNs), "ns", base+" of httpx.ParseInto")
	rep.layer("service.classify_ns", median(h.classifyNs), "ns", base+" of service.Registry.Classify")
	for wl, xs := range h.execUs {
		name := "service.execute_host_us." + workloadNames[wl]
		if len(xs) == 0 {
			rep.unmeasured[name] = "the probe stream held no request of this workload"
			continue
		}
		rep.layer(name, median(xs), "us", fmt.Sprintf("median of %d replayed service.Registry.ExecuteHost calls", len(xs)))
	}
	if h.failed > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("host replay: %d of %d replayed requests took an error path", h.failed, h.requests))
	}
}

// fabricResult holds per-unit timings of the device-path replay.
type fabricResult struct {
	unitSize                   int
	queueUs, stageUs, renderUs []float64 // loopback: in-process cluster
	dispatchUs, workerUs       []float64 // tcp: Dispatch→Done and worker-reported stage+render
	workerShares               shares
	kernelErrs                 int
}

// replayWorkerLabel marks the profile samples of the in-process fabric
// workers.
var replayWorkerLabel = map[string]string{"side": "worker"}

// fabricReplay ships the probe stream through fabric.Fabric as units of
// the live run's mean occupancy: first to a one-node loopback fabric,
// whose in-process cluster reports stage and render start times (queue
// wait = first stage start minus dispatch), then to a tcp fabric with
// two in-process fabric.Worker nodes. The tcp pass runs under a CPU
// profile whose worker-side samples are labelled.
func fabricReplay(reqs [][]byte, occupancy float64, budget time.Duration, log *spanLog, profilePath string) (*fabricResult, error) {
	reg := rhythm.DefaultRegistry()
	k := int(math.Round(occupancy))
	if k < 1 {
		k = 1
	}
	fr := &fabricResult{unitSize: k}
	geom := func(c *fabric.Config) {
		c.Registry = reg
		c.Groups = workerGroups
		c.CohortSize = rhythmdCohortSize
		c.SlotsPerDevice = 4
		c.SessionBuckets = sessionBuckets
		c.SessionNodesPerBucket = sessionNodesPerBucket
		c.Simt = simt.GTXTitan()
	}

	var lcfg fabric.Config
	geom(&lcfg)
	lcfg.Nodes = 1
	lfab, err := fabric.New(lcfg)
	if err != nil {
		return nil, err
	}
	err = replayUnits(lfab, reqs, k, budget, func(u int, t0, t1 time.Time, res *cluster.Result) {
		root := log.add("replay.fabric_loopback", 0, u, t0, t1)
		var stages time.Duration
		first := t1
		for i, se := range res.Stages {
			if se.Start.Before(first) {
				first = se.Start
			}
			stages += se.Dur
			if root != 0 {
				log.add(fmt.Sprintf("simt.stage-%d", i), root, u, se.Start, se.Start.Add(se.Dur))
			}
		}
		if root != 0 {
			log.add("cluster.queue_wait", root, u, t0, first)
			log.add("cluster.render", root, u, res.RenderStart, res.RenderStart.Add(res.RenderDur))
		}
		fr.queueUs = append(fr.queueUs, float64(first.Sub(t0))/1e3)
		fr.stageUs = append(fr.stageUs, float64(stages)/1e3)
		fr.renderUs = append(fr.renderUs, float64(res.RenderDur)/1e3)
		fr.kernelErrs += res.KernelErrs
	})
	lfab.Close()
	if err != nil {
		return nil, err
	}

	// The workers are built inside a labelled context: every goroutine
	// they start inherits the label, so their profile samples can be
	// told from the dispatching side's.
	var workers []*fabric.Worker
	var addrs []string
	serveDone := make(chan error, cohortNodes)
	pprof.Do(context.Background(), pprof.Labels("side", "worker"), func(context.Context) {
		for i := 0; i < cohortNodes; i++ {
			w := fabric.NewWorker(fabric.WorkerConfig{
				Registry:              reg,
				Devices:               1,
				Groups:                workerGroups,
				CohortSize:            rhythmdCohortSize,
				SlotsPerDevice:        4,
				SessionBuckets:        sessionBuckets,
				SessionNodesPerBucket: sessionNodesPerBucket,
				Simt:                  simt.GTXTitan(),
			})
			if err = w.Listen("127.0.0.1:0"); err != nil {
				w.Close()
				return
			}
			workers = append(workers, w)
			addrs = append(addrs, w.Addr())
			go func() { serveDone <- w.Serve() }()
		}
	})
	defer func() {
		for _, w := range workers {
			w.Close()
		}
		for range workers {
			<-serveDone
		}
	}()
	if err != nil {
		return nil, err
	}
	var tcfg fabric.Config
	geom(&tcfg)
	tcfg.Addrs = addrs
	tfab, err := fabric.New(tcfg)
	if err != nil {
		return nil, err
	}
	defer tfab.Close()

	pf, err := os.Create(profilePath)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, err
	}
	err = replayUnits(tfab, reqs, k, budget, func(u int, t0, t1 time.Time, res *cluster.Result) {
		log.add("replay.fabric_tcp", 0, u, t0, t1)
		work := res.RenderDur
		for _, se := range res.Stages {
			work += se.Dur
		}
		fr.dispatchUs = append(fr.dispatchUs, float64(t1.Sub(t0))/1e3)
		fr.workerUs = append(fr.workerUs, float64(work)/1e3)
		fr.kernelErrs += res.KernelErrs
	})
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(profilePath)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	fr.workerShares = attributeSamples(samples, replayWorkerLabel)
	return fr, nil
}

// replayUnits dispatches the stream one unit at a time (k copies of
// each request), waiting for each result, until budget is spent.
func replayUnits(fab *fabric.Fabric, reqs [][]byte, k int, budget time.Duration, done func(u int, t0, t1 time.Time, res *cluster.Result)) error {
	reg := fab.Registry()
	type parsed struct {
		t   service.TypeID
		raw []byte
	}
	var stream []parsed
	for _, raw := range reqs {
		req, err := httpx.Parse(raw)
		if err != nil {
			return fmt.Errorf("replay parse: %w", err)
		}
		t, ok := reg.Classify(&req)
		if !ok {
			return fmt.Errorf("replay: unclassified request %q", requestLine(raw))
		}
		stream = append(stream, parsed{t, raw})
	}
	ch := make(chan *cluster.Result, 1)
	deadline := time.Now().Add(budget)
	u := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, p := range stream {
			unit := &cluster.Unit{Type: p.t, Reqs: make([]httpx.Request, k), Done: func(r *cluster.Result) { ch <- r }}
			for i := range unit.Reqs {
				unit.Reqs[i], _ = httpx.Parse(p.raw)
			}
			unit.Group = fab.GroupFor(&unit.Reqs[0], p.t)
			u++
			t0 := time.Now()
			if !fab.Dispatch(unit) {
				return fmt.Errorf("replay: unit %d shed", u)
			}
			res := <-ch
			t1 := time.Now()
			if res.Err != nil {
				return fmt.Errorf("replay: unit %d: %w", u, res.Err)
			}
			done(u, t0, t1, res)
		}
	}
	return nil
}

func reportFabricReplay(rep *report, fr *fabricResult) {
	unit := fmt.Sprintf("units of %d (live mean occupancy)", fr.unitSize)
	rep.layer("fabric.dispatch_us", median(fr.dispatchUs), "us", fmt.Sprintf("median Dispatch->Done of %d %s on a tcp fabric with 2 in-process workers", len(fr.dispatchUs), unit))
	wire := median(fr.dispatchUs) - median(fr.workerUs) - median(fr.queueUs)
	rep.layer("fabric.wire_us", wire, "us", fmt.Sprintf("tcp dispatch %.1f us minus worker stage+render %.1f us minus loopback queue wait %.1f us (medians)",
		median(fr.dispatchUs), median(fr.workerUs), median(fr.queueUs)))
	rep.layer("cluster.queue_wait_us", median(fr.queueUs), "us", fmt.Sprintf("median first-stage start minus dispatch over %d %s on a loopback fabric", len(fr.queueUs), unit))
	rep.layer("cluster.render_us", median(fr.renderUs), "us", fmt.Sprintf("median cluster.Result.RenderDur over %d loopback units", len(fr.renderUs)))
	rep.layer("simt.stage_wall_us", median(fr.stageUs), "us", fmt.Sprintf("median summed stage wall time over %d loopback units", len(fr.stageUs)))
	if fr.kernelErrs > 0 {
		rep.fail("fabric replay: %d kernel errors", fr.kernelErrs)
	}
}

// shareSource is one CPU profile and the CPU seconds it stands for.
type shareSource struct {
	sh   shares
	cpu  float64
	base string
}

// Layers whose CPU share the report names, with the package each is.
var shareLayers = []string{
	"rhythm", "httpx", "service", "banking", "ecom", "telemetry", "backend",
	"cohort", "fabric", "cluster", "simt", "mem", "pipeline", "flight", "obs",
}

// reportShares combines profiles weighted by the CPU time each covers:
// a layer's share is its CPU seconds across all sources over their sum.
func reportShares(rep *report, srcs []shareSource) {
	var total float64
	var bases []string
	for _, s := range srcs {
		total += s.cpu
		bases = append(bases, fmt.Sprintf("%s over %.2f CPU s", s.base, s.cpu))
	}
	share := func(layer string) float64 {
		var cpu float64
		for _, s := range srcs {
			cpu += s.cpu * s.sh.share(layer)
		}
		return ratio(cpu, total)
	}
	base := strings.Join(bases, "; ")
	for _, l := range shareLayers {
		rep.layer(l+".cpu_share", share(l), "ratio", base)
	}
	rep.layer("runtime.gc_cpu_share", share(bucketGC), "ratio", base)
	rep.layer("runtime.sched_cpu_share", share(bucketSched), "ratio", base)
	// Print every other layer too, largest first.
	seen := map[string]bool{bucketGC: true, bucketSched: true}
	for _, l := range shareLayers {
		seen[l] = true
	}
	var rest []string
	for _, s := range srcs {
		for l := range s.sh.by {
			if !seen[l] {
				seen[l] = true
				rest = append(rest, l)
			}
		}
	}
	sort.Slice(rest, func(i, j int) bool { return share(rest[i]) > share(rest[j]) })
	for _, l := range rest {
		rep.notes = append(rep.notes, fmt.Sprintf("cpu_share %s %.4f (not a gated layer)", l, share(l)))
	}
}

// reportSelfTimes prints each replay span name's mean self time.
func reportSelfTimes(rep *report, log *spanLog) {
	self, count := selfByName(log.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.notes = append(rep.notes, fmt.Sprintf("self_us %-36s %10.2f mean over %d spans", n, float64(self[n])/1e3/float64(count[n]), count[n]))
	}
	if log.dropped > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("span file keeps the first %d spans; %d later spans were timed but not kept", len(log.spans), log.dropped))
	}
}
