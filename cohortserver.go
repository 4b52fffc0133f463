package rhythm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/adapt"
	"rhythm/internal/cluster"
	"rhythm/internal/cohort"
	"rhythm/internal/fabric"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// CohortOptions tunes the live cohort-batched server.
type CohortOptions struct {
	// Registry is the workload registry the server serves (nil =
	// DefaultRegistry(): banking, ecom, telemetry). Classification,
	// shard-group affinity, device cohort geometry, render-cache
	// eligibility, and the metrics/stats label universe all derive from
	// it (DESIGN.md §16).
	Registry *service.Registry
	// CohortSize is the number of requests batched per cohort (default
	// 128 — live traffic forms far smaller cohorts than the offline
	// saturation harness).
	CohortSize int
	// MaxCohorts is the number of cohort formation contexts in flight
	// across the whole pool (default 4×Devices). Each device gets
	// MaxCohorts/Devices execution slots.
	MaxCohorts int
	// Devices is the width of the SIMT device pool formed cohorts are
	// dispatched onto (default 1). State shards across Devices groups
	// by session affinity; see internal/cluster and DESIGN.md §11.
	Devices int
	// DeviceQueue bounds each device's dispatch queue (0 = cluster
	// default, 2× the device's execution slots). A full queue sheds the
	// cohort with the 503 path.
	DeviceQueue int
	// FaultPlan optionally injects device faults (nil = none); see
	// cluster.FaultPlan.
	FaultPlan *cluster.FaultPlan
	// Nodes splits the device pool into this many in-process fabric
	// nodes of Devices modeled devices each (default 1 — the classic
	// single-cluster topology), routed by rendezvous-hashed session
	// affinity over a global shard-group table (DESIGN.md §17).
	Nodes int
	// WorkerAddrs lists remote `rhythmd -worker` addresses; non-empty
	// selects the tcp fabric transport with one node per address.
	// Workers size their own device pools, so Devices/Nodes only shape
	// the frontend's defaults. Render caching and live launch-profile
	// merging need in-process device state and disable themselves.
	WorkerAddrs []string
	// LinkBps budgets each fabric node's link in bytes/sec (0 =
	// unmetered): the NIC in front of a tcp worker, the modeled PCIe
	// bus in front of a loopback node. A saturated link sheds with 503
	// (internal/netmodel; counters in /v1/topology).
	LinkBps float64
	// NodeFaultPlan kills whole fabric nodes deterministically
	// (failover drills); see fabric.NodeFaultPlan.
	NodeFaultPlan *fabric.NodeFaultPlan
	// WorkloadQuotas caps each named workload's share (0 < share ≤ 1)
	// of admission capacity: a workload holding more than
	// share×(AdmitQueue+OverflowLimit) concurrent in-flight requests
	// sheds with 503, counted per workload in /v1/stats
	// (workload_sheds) and /v1/metrics (rhythm_shed_total).
	WorkloadQuotas map[string]float64
	// FormationTimeout is the wall-clock §3.1 formation deadline: the
	// longest a request waits in a forming cohort, measured from the
	// cohort's first request (default 2ms; negative disables the timer).
	// Formation is work-conserving (DESIGN.md §9): a cohort whose
	// (type, shard group) key has no cohort in flight launches at once,
	// so the deadline only binds while that key is busy — a cohort that
	// waits on it otherwise launches when the key's in-flight cohort
	// finishes.
	FormationTimeout time.Duration
	// RequestDeadline bounds a request's end-to-end residence including
	// formation delay; past it the connection gets a 504 (default 5s).
	// The request may still complete server-side — the deadline releases
	// the connection, not the cohort slot.
	RequestDeadline time.Duration
	// AdmitQueue bounds the admission queue between connection handlers
	// and the device loop (default 4×CohortSize). A full queue sheds
	// with 503 + Retry-After.
	AdmitQueue int
	// OverflowLimit bounds requests parked because every cohort context
	// is Busy (default 2×CohortSize; negative means no parking — reject
	// the moment the pool has no free context).
	OverflowLimit int
	// MaxSessions sizes the session array (default 1<<16). The bucket
	// geometry matches NewTCPServer so host and cohort mode create
	// identical session ids for identical request streams.
	MaxSessions int
	// RetryAfter is the hint on 503 responses (default 1s). With an SLO
	// set, the adaptive controller's backlog estimate overrides it.
	RetryAfter time.Duration
	// SLO enables the adaptive formation controller (internal/adapt,
	// DESIGN.md §12) with this p99 latency target: formation windows and
	// early-launch thresholds are retuned per request type from the
	// observed arrival rate and the measured service model, and below the
	// crossover rate requests fall back to the scalar host path. Zero
	// keeps the fixed FormationTimeout for every type.
	SLO time.Duration
	// AdaptTick is the controller's retuning period (default 100ms).
	AdaptTick time.Duration
	// CrossoverRate tunes the adaptive host/device routing crossover in
	// req/s: 0 derives it from the measured service model, >0 uses the
	// explicit rate, <0 disables host fallback (always batch).
	CrossoverRate float64
	// HostParallelism caps the host workers executing kernel warps
	// (0 = all cores; see DESIGN.md §8).
	HostParallelism int
	// SimParallelism caps the host workers executing independent kernel
	// launches of one device epoch batch concurrently (0 = all cores;
	// see DESIGN.md §13). Simulated results are bit-identical at every
	// setting.
	SimParallelism int
	// ProfileOff disables the device's kernel-launch profiler
	// (simt.Config.ProfileOff). On by default: recording is
	// zero-allocation and costs <2% (BenchmarkProfilerOverhead).
	ProfileOff bool
	// ProfileRing sizes the launch-record ring (0 = simt default, 4096).
	ProfileRing int
	// TraceCapacity bounds the request-trace recorder behind
	// /v1/trace (0 = obs default, 1024).
	TraceCapacity int
	// RenderCache, when positive, enables the whole-page render cache
	// with roughly this many entries: repeated read-only requests are
	// answered from memory before admission, bypassing cohort formation
	// and kernel launch entirely, byte-identical to a fresh render.
	// Invalidation hooks the shard groups' Besim write commit (see
	// internal/rcache and DESIGN.md §14). Zero disables caching.
	RenderCache int
	// FlightRing sizes the flight recorder's anomaly ring (0 = default
	// 256); FlightSlow sets an explicit slow-promotion threshold (0 =
	// adaptive p99 estimate). See internal/flight and DESIGN.md §15.
	FlightRing int
	FlightSlow time.Duration
	// HealthObjective is the /v1/health burn-rate objective (0 = 0.99);
	// HealthFastWindow and HealthSlowWindow are the burn evaluation
	// horizons (0 = 5m and 1h). The latency target the counts classify
	// against is SLO when set, else a 250ms default.
	HealthObjective  float64
	HealthFastWindow time.Duration
	HealthSlowWindow time.Duration
}

func (o *CohortOptions) fill() {
	if o.Registry == nil {
		o.Registry = DefaultRegistry()
	}
	if o.CohortSize == 0 {
		o.CohortSize = 128
	}
	if o.Devices <= 0 {
		o.Devices = 1
	}
	if o.MaxCohorts == 0 {
		o.MaxCohorts = 4 * o.Devices
	}
	if o.FormationTimeout == 0 {
		o.FormationTimeout = 2 * time.Millisecond
	}
	if o.RequestDeadline == 0 {
		o.RequestDeadline = 5 * time.Second
	}
	if o.AdmitQueue == 0 {
		o.AdmitQueue = 4 * o.CohortSize
	}
	if o.OverflowLimit == 0 {
		o.OverflowLimit = 2 * o.CohortSize
	} else if o.OverflowLimit < 0 {
		o.OverflowLimit = 0
	}
	if o.MaxSessions < 256 {
		o.MaxSessions = 1 << 16
	}
	if o.RetryAfter == 0 {
		o.RetryAfter = time.Second
	}
}

// liveReq is one in-flight request: the parsed form handed to the device
// loop plus the channel its rendered response comes back on.
//
// spans is shared between the handler and the device loop without a
// lock; the resp channel is the fence. The handler appends before
// admission, the loop appends between consuming the request and sending
// on resp, and the handler only touches spans again after receiving from
// resp (channel happens-before). On the paths where the handler answers
// without a loop response (504 deadline, loop exit) it must NOT read
// spans — the loop may still be appending — so those responses go
// untraced.
type liveReq struct {
	req      httpx.Request
	t        service.TypeID
	group    int // shard group (cluster.GroupFor; -1 = stateless)
	enq      time.Time
	admitted time.Time // loop pickup (set by admit)
	spans    []obs.Span
	resp     chan []byte // buffered(1): the loop never blocks delivering

	// frec is the request's flight record, a copy of the connection's
	// armed record shared handler↔loop under the same resp-channel fence
	// as spans: the loop fills the causal fields (cohort size, launch
	// reason, device, launch seqs, status) before sending on resp, and
	// the handler copies it back only after receiving. The no-response
	// paths (504, loop exit) must NOT touch frec — the loop may still be
	// writing — and record their outcome in the connection's copy.
	frec flight.Record

	// slot is the render-cache insertion key captured before admission;
	// the completion path inserts the rendered page under it.
	slot cacheSlot
}

// flushMsg asks the loop to launch the forming cohort for a key; gen
// guards against a stale timer firing after that cohort already launched
// and a new one opened under the same key.
type flushMsg struct {
	key string
	gen uint64
}

type formingTimer struct {
	timer *time.Timer
	gen   uint64
}

// perStage accumulates one pipeline stage's launch count and device time
// for a request type.
type perStage struct {
	Launches uint64  `json:"launches"`
	DeviceUs float64 `json:"device_us_total"`
}

type typeCounters struct {
	cohorts, filled, timedOut, early, idle, requests uint64
	hostReqs                                         uint64
	sumOccup                                         uint64
	maxOccup                                         int
	stages                                           []perStage
}

// CohortTypeStats is the per-request-type section of CohortServerStats.
type CohortTypeStats struct {
	Workload      string     `json:"workload"`
	Cohorts       uint64     `json:"cohorts"`
	Filled        uint64     `json:"filled"`
	TimedOut      uint64     `json:"timed_out"`
	Early         uint64     `json:"early"`
	Idle          uint64     `json:"idle"`
	Requests      uint64     `json:"requests"`
	HostRequests  uint64     `json:"host_requests"`
	MeanOccupancy float64    `json:"mean_occupancy"`
	MaxOccupancy  int        `json:"max_occupancy"`
	Stages        []perStage `json:"stages"`
}

// CohortServerStats is the /v1/stats document of a cohort-mode server
// (cmd/rhythm-load decodes it to report server-side batching).
type CohortServerStats struct {
	SchemaVersion int    `json:"schema_version"`
	Mode          string `json:"mode"`
	// Workloads lists the registered workload names in registration
	// order; Types keys are workload-qualified display labels
	// ("banking/login", "ecom/browse").
	Workloads       []string `json:"workloads"`
	Served          uint64   `json:"served"`
	KernelErrors    uint64   `json:"kernel_errors"`
	ParseErrors     uint64   `json:"parse_errors"`
	NotFound        uint64   `json:"not_found"`
	Images          uint64   `json:"images"`
	RejectedQueue   uint64   `json:"rejected_queue"`
	RejectedPool    uint64   `json:"rejected_pool"`
	DeadlineMisses  uint64   `json:"deadline_misses"`
	CohortsFormed   uint64   `json:"cohorts_formed"`
	CohortsFilled   uint64   `json:"cohorts_filled"`
	CohortsTimedOut uint64   `json:"cohorts_timed_out"`
	CohortsEarly    uint64   `json:"cohorts_early"`
	CohortsIdle     uint64   `json:"cohorts_idle"`
	HostFallbacks   uint64   `json:"host_fallbacks"`
	RequestsBatched uint64   `json:"requests_batched"`
	AdmissionStalls uint64   `json:"admission_stalls"`
	SumOccupancy    uint64   `json:"sum_occupancy"`
	MeanOccupancy   float64  `json:"mean_occupancy"`
	MaxOccupancy    int      `json:"max_occupancy"`
	MaxContexts     int      `json:"max_contexts_in_use"`
	FormWaitMsMean  float64  `json:"formation_wait_ms_mean"`
	FormWaitMsP99   float64  `json:"formation_wait_ms_p99"`
	LaunchDevUsMean float64  `json:"launch_device_us_mean"`
	LatencyMsP50    float64  `json:"latency_ms_p50"`
	LatencyMsP99    float64  `json:"latency_ms_p99"`

	// Device is the pool's aggregate device counter set; Devices breaks
	// it down per device. Both come from a single atomic pass over the
	// cluster (one mutex hold), so a scrape during drain or failover
	// never observes torn counts across the per-device fields.
	Device simt.DeviceStats `json:"device"`
	// ProfiledLaunches is how many launches the kernel profilers have
	// recorded across the pool (0 when profiling is off).
	ProfiledLaunches uint64 `json:"profiled_launches"`

	// Devices is the per-device breakdown: health, queue depth,
	// outstanding cohorts, owned shard groups, virtual time, stats.
	Devices []cluster.DeviceSnapshot `json:"devices"`
	// Failovers counts shard groups reassigned off a dead device;
	// DeviceRetries counts kernel-launch retry attempts; ShedCohorts
	// counts cohorts refused by the pool (full device queue or no
	// healthy device) and answered with 503s.
	Failovers     uint64 `json:"failovers"`
	DeviceRetries uint64 `json:"device_retries"`
	ShedCohorts   uint64 `json:"shed_cohorts"`

	// Fabric topology (schema v5): transport kind, per-node rows, and
	// node-level failover/link counters.
	Transport     string                `json:"transport,omitempty"`
	Nodes         []fabric.NodeSnapshot `json:"nodes,omitempty"`
	NodeFailovers uint64                `json:"node_failovers,omitempty"`
	NodeRetries   uint64                `json:"node_retries,omitempty"`
	LinkSheds     uint64                `json:"link_sheds,omitempty"`
	LostUnits     uint64                `json:"lost_units,omitempty"`
	// WorkloadSheds counts 503-shed requests per workload name (schema
	// v5): quota, queue, pool, link, and node-loss sheds all count.
	WorkloadSheds map[string]uint64 `json:"workload_sheds,omitempty"`

	// Render-cache counters (zero when the cache is disabled).
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       uint64 `json:"cache_entries"`

	// Flight-recorder counters (DESIGN.md §15).
	FlightRequests  uint64 `json:"flight_requests"`
	FlightAnomalies uint64 `json:"flight_anomalies"`

	// Adapt is the adaptive-formation controller's state (nil when the
	// server runs a fixed formation timeout).
	Adapt *adapt.Snapshot `json:"adapt,omitempty"`

	Types map[string]CohortTypeStats `json:"types"`
}

// CohortServer serves every registered workload over TCP through the
// paper's cohort pipeline. It is the shared frontend plus the cohort
// executor: the frontend's connection handlers parse and classify
// requests on the host, a single device-loop goroutine batches them into
// cohort.Pool contexts, and each formed cohort runs its stage kernels on
// the modeled SIMT device, one asynchronous stream per context. A cohort
// launches when it fills, when its key has nothing in flight, or when
// the §3.1 formation timeout fires (DESIGN.md §9). Responses are extracted
// from device memory after the response transpose and are byte-identical
// to TCPServer's host path (the differential test in cohortserver_test.go
// asserts this for every request type).
//
// Wall clock drives admission and formation; the simulation engine
// remains a purely virtual device timeline, stepped by the loop while
// launches are in flight.
type CohortServer struct {
	*frontend
	opts CohortOptions
	// fab is the device fabric: the node tier the dispatch loop ships
	// formed cohorts into. Loopback (default) keeps every node
	// in-process; WorkerAddrs makes them remote (DESIGN.md §17).
	fab  *fabric.Fabric
	pool *cohort.Pool[*liveReq]
	// ctrl is the adaptive formation controller (nil without an SLO). Its
	// methods are internally locked; the hot handler path touches it only
	// in Arrival and RetryAfter.
	ctrl *adapt.Controller

	admitCh chan *liveReq
	flushCh chan flushMsg
	doCh    chan func()
	stopCh  chan struct{}
	doneCh  chan struct{}

	stopOnce sync.Once

	// Handler-side counters (many goroutines).
	rejectedQueue  atomic.Uint64
	deadlineMisses atomic.Uint64

	// Atomic histograms behind /v1/metrics.
	formHist  *stats.Histogram // formation wait, nanoseconds
	occupHist *stats.Histogram // cohort occupancy at launch

	// Per-workload admission quotas (WorkloadQuotas): wlLimit is each
	// workload's concurrent-request cap (0 = unlimited), wlInflight the
	// live count, wlSheds every 503 shed attributed to the workload —
	// quota, queue, pool, link, or node loss. All indexed by the
	// registry's workload index.
	wlLimit    []int64
	wlInflight []atomic.Int64
	wlSheds    []atomic.Uint64

	// Loop-owned state (no locking: single goroutine until doneCh).
	draining      bool
	inflight      int
	overflow      []*liveReq
	forming       map[string]*formingTimer
	nextGen       uint64
	rejectedPool  uint64
	shedCohorts   uint64
	kernelErrors  uint64
	hostFallbacks uint64
	perType       map[string]*typeCounters
	maxOccup      int
	formWait      *stats.LatencyRecorder
	launchLat     *stats.LatencyRecorder
	reqLat        *stats.LatencyRecorder

	// busy counts each pool key's cohorts in flight (onReady to finish);
	// a key absent from it is idle, and its forming cohort launches at
	// once.
	busy map[string]int
	// keys holds the pool key of every (type, shard group), indexed
	// [type][group+1] (group -1 is stateless), so place builds none.
	keys [][]string
}

// NewCohortServer builds the server, its device fabric, and its
// dispatch loop. Callers then Listen + Serve, and Shutdown to drain.
// Construction fails when a remote worker cannot be dialed, refuses
// the wire handshake, or a WorkloadQuotas key names no registered
// workload.
func NewCohortServer(opts CohortOptions) (*CohortServer, error) {
	opts.fill()
	reg := opts.Registry
	cfg := simt.GTXTitan()
	cfg.HostParallelism = opts.HostParallelism
	cfg.SimParallelism = opts.SimParallelism
	cfg.ProfileOff = opts.ProfileOff
	cfg.ProfileRing = opts.ProfileRing
	fab, err := fabric.New(fabric.Config{
		Registry:              reg,
		Nodes:                 opts.Nodes,
		Addrs:                 opts.WorkerAddrs,
		DevicesPerNode:        opts.Devices,
		CohortSize:            opts.CohortSize,
		SlotsPerDevice:        (opts.MaxCohorts + opts.Devices - 1) / opts.Devices,
		QueueDepth:            opts.DeviceQueue,
		SessionBuckets:        256,
		SessionNodesPerBucket: opts.MaxSessions/256*4 + 4,
		Simt:                  cfg,
		Faults:                opts.FaultPlan,
		NodeFaults:            opts.NodeFaultPlan,
		LinkBps:               opts.LinkBps,
	})
	if err != nil {
		return nil, err
	}
	s := &CohortServer{
		opts:      opts,
		fab:       fab,
		admitCh:   make(chan *liveReq, opts.AdmitQueue),
		flushCh:   make(chan flushMsg, 256),
		doCh:      make(chan func(), 16),
		stopCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		forming:   make(map[string]*formingTimer),
		busy:      make(map[string]int),
		perType:   make(map[string]*typeCounters),
		formWait:  stats.NewLatencyRecorder(),
		launchLat: stats.NewLatencyRecorder(),
		reqLat:    stats.NewLatencyRecorder(),
		formHist:  stats.NewHistogram(stats.LatencyBucketsNs()),
		occupHist: stats.NewHistogram(stats.PowersOfTwoBuckets(opts.CohortSize)),
	}
	s.frontend = newFrontend(s, reg, frontendConfig{
		mode:     "cohort",
		traceCap: opts.TraceCapacity,
		flight:   flight.Config{Ring: opts.FlightRing, Slow: opts.FlightSlow},
		health: health.Config{
			Objective:  opts.HealthObjective,
			SLO:        opts.SLO,
			FastWindow: opts.HealthFastWindow,
			SlowWindow: opts.HealthSlowWindow,
		},
	})
	s.keys = make([][]string, reg.NumTypes())
	for t := range s.keys {
		s.keys[t] = make([]string, fab.GroupCount()+1)
		for g := range s.keys[t] {
			s.keys[t][g] = fmt.Sprintf("%s/%d", s.names[t], g-1)
		}
	}
	ws := reg.Workloads()
	s.wlLimit = make([]int64, len(ws))
	s.wlInflight = make([]atomic.Int64, len(ws))
	s.wlSheds = make([]atomic.Uint64, len(ws))
	for name, share := range opts.WorkloadQuotas {
		idx := -1
		for i, w := range ws {
			if w.Name() == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			fab.Close()
			return nil, fmt.Errorf("rhythm: WorkloadQuotas names unregistered workload %q", name)
		}
		// The quota is a share of total admission capacity: the admit
		// queue plus the overflow park. At least one slot so a tiny
		// share can still make progress.
		limit := int64(share * float64(opts.AdmitQueue+opts.OverflowLimit))
		if limit < 1 {
			limit = 1
		}
		s.wlLimit[idx] = limit
	}
	if opts.RenderCache > 0 {
		s.cache = rcache.New(opts.RenderCache)
		// The hook observes every committed Besim write fabric-wide:
		// device kernels replay their deferred writes into the owning
		// group's DB through the same mutators the host path calls. With
		// remote workers the writes commit in another process — no
		// invalidation signal reaches the frontend, so the cache must
		// stay off (SetWriteHook reports false).
		if !fab.SetWriteHook(s.cache.Invalidate) {
			s.cache = nil
		}
	}
	// Pool timeout 0: formation deadlines run on wall-clock timers (the
	// pool's engine argument is unused at timeout 0 — the cluster's
	// devices own the virtual timelines now).
	s.pool = cohort.NewPool[*liveReq](sim.NewEngine(), opts.MaxCohorts, opts.CohortSize, 0, s.onReady)
	if opts.SLO > 0 {
		s.ctrl = adapt.New(adapt.Config{
			Types:         reg.NumTypes(),
			Names:         s.names,
			Capacity:      opts.CohortSize,
			SLO:           opts.SLO,
			Tick:          opts.AdaptTick,
			CrossoverRate: opts.CrossoverRate,
		})
	}
	// The advisor runs on the loop goroutine after every Add that leaves
	// a cohort below capacity. The controller's threshold comes first, so
	// a cohort that reaches it counts as early; otherwise a key with
	// nothing in flight launches at once (work-conserving formation).
	s.pool.SetAdvisor(func(c *cohort.Context[*liveReq]) (cohort.Reason, bool) {
		if s.ctrl != nil && c.Len() >= s.ctrl.Threshold(int(c.Requests()[0].t)) {
			return cohort.Early, true
		}
		return cohort.Idle, s.busy[c.Key] == 0
	})
	go s.loop()
	return s, nil
}

// retryAfter is the Retry-After hint for 503 responses: the controller's
// backlog-drain estimate in adaptive mode, else the static option. Safe
// from any goroutine.
func (s *CohortServer) retryAfter() time.Duration {
	if s.ctrl != nil {
		return s.ctrl.RetryAfter()
	}
	return s.opts.RetryAfter
}

// Shutdown drains gracefully (Drain): stop accepting, reject new
// admissions, flush partially-full cohorts, wait for in-flight launches
// to write their responses back, then close connections. ctx bounds the
// wait.
func (s *CohortServer) Shutdown(ctx context.Context) error { return s.Drain(ctx) }

// Snapshot returns the cohort-mode stats document.
func (s *CohortServer) Snapshot() ServerStats {
	st := s.Stats()
	return ServerStats{Mode: "cohort", Cohort: &st}
}

// drain stops the dispatch loop once it has flushed every forming
// cohort and delivered every in-flight response, then closes the
// fabric. The frontend has already closed the listener and set closing,
// so no new admission arrives.
func (s *CohortServer) drain(ctx context.Context) error {
	s.stopOnce.Do(func() { close(s.stopCh) })
	select {
	case <-s.doneCh:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The loop exits only at inflight 0, so the fabric is idle; Close
	// returns once loopback node workers have drained and exited (on
	// tcp it closes the worker connections).
	s.fab.Close()
	return nil
}

// execute admits one classified request to the device loop and waits
// for the cohort path's response, shedding with 503 while draining, past
// the workload's quota, or on a full admission queue, and answering 504
// past the request deadline. Only a response delivered over lr.resp
// returns spans and hands the loop-filled flight record back to a.frec;
// on the other paths the loop may still own lr, so the outcome goes
// into a.frec directly.
func (s *CohortServer) execute(a *connArena, t service.TypeID, slot cacheSlot) ([]byte, []obs.Span) {
	if s.closing.Load() {
		return s.shedLocal(a, t), nil
	}
	// Per-workload admission quota: the slot is held until this handler
	// returns (every exit path below runs the deferred release), so the
	// count is exactly the workload's concurrent in-flight requests.
	widx := s.reg.WorkloadIndex(t)
	if lim := s.wlLimit[widx]; lim > 0 {
		if s.wlInflight[widx].Add(1) > lim {
			s.wlInflight[widx].Add(-1)
			return s.shedLocal(a, t), nil
		}
		defer s.wlInflight[widx].Add(-1)
	}

	start := a.frec.Start
	lr := &liveReq{t: t, group: s.fab.GroupFor(&a.req, t), enq: time.Now(), resp: make(chan []byte, 1), slot: slot}
	// The in-flight request owns its param/cookie slices: the arena's
	// request is recycled as soon as this handler reads again.
	a.req.CopyTo(&lr.req)
	lr.frec = a.frec
	lr.spans = append(lr.spans, obs.Span{Name: "classify", Start: start, Dur: lr.enq.Sub(start)})
	select {
	case s.admitCh <- lr:
	default:
		return s.shedLocal(a, t), nil
	}
	deadline := time.NewTimer(s.opts.RequestDeadline)
	defer deadline.Stop()
	select {
	case resp := <-lr.resp:
		a.frec = lr.frec
		return resp, lr.spans
	case <-deadline.C:
		s.deadlineMisses.Add(1)
		s.bad[t].Add(1)
		a.frec.Status = flight.StatusDeadline
		return errorResponse(504, "Gateway Timeout"), nil
	case <-s.doneCh:
		// The loop exited while we waited. Either our response raced the
		// exit (delivered, then doneCh closed — the buffered channel
		// still holds it) or the request was never consumed.
		select {
		case resp := <-lr.resp:
			a.frec = lr.frec
			return resp, lr.spans
		default:
			return s.shedLocal(a, t), nil
		}
	}
}

// shedLocal answers a request the handler refuses before the loop sees
// it with the 503 backpressure response.
func (s *CohortServer) shedLocal(a *connArena, t service.TypeID) []byte {
	s.rejectedQueue.Add(1)
	s.wlSheds[s.reg.WorkloadIndex(t)].Add(1)
	s.bad[t].Add(1)
	a.frec.Status = flight.StatusShed
	return busyResponse(s.retryAfter())
}

// sessionsFor returns the session array of the shard group owning req
// (nil for stateless requests, while the owning node is down, and
// always on remote transports, where the cache is off).
func (s *CohortServer) sessionsFor(req *httpx.Request, t service.TypeID) *session.Array {
	if group := s.fab.GroupFor(req, t); group >= 0 {
		return s.fab.GroupSessions(group)
	}
	return nil
}

// loop is the dispatch loop: the only goroutine that touches the pool,
// formation timers, and the loop-owned counters. Execution itself
// happens on the cluster's device workers; their completions come back
// here through doCh, so all accounting stays single-goroutine.
func (s *CohortServer) loop() {
	defer close(s.doneCh)
	stop := s.stopCh
	// The controller retunes on a wall-clock tick; without a controller
	// the nil channel never fires.
	var tickCh <-chan time.Time
	if s.ctrl != nil {
		ticker := time.NewTicker(s.ctrl.TickEvery())
		defer ticker.Stop()
		tickCh = ticker.C
	}
	for {
		if s.draining && s.idle() {
			return
		}
		select {
		case lr := <-s.admitCh:
			s.admit(lr)
		case m := <-s.flushCh:
			s.flush(m)
		case fn := <-s.doCh:
			fn()
		case now := <-tickCh:
			s.ctrl.NoteQueue(len(s.admitCh) + len(s.overflow))
			s.ctrl.Tick(now)
		case <-stop:
			stop = nil
			s.beginDrain()
		}
	}
}

// idle reports whether the drained loop may exit: nothing queued,
// forming, or in flight on the device pool.
func (s *CohortServer) idle() bool {
	return len(s.admitCh) == 0 && len(s.flushCh) == 0 && len(s.doCh) == 0 &&
		len(s.overflow) == 0 && len(s.forming) == 0 && s.inflight == 0 &&
		s.pool.FreeContexts() == s.opts.MaxCohorts
}

// beginDrain stops formation timers and launches everything forming.
// Admissions still queued are served (admit flushes immediately while
// draining), so every accepted request gets a real response.
func (s *CohortServer) beginDrain() {
	s.draining = true
	for _, f := range s.forming {
		f.timer.Stop()
	}
	s.forming = make(map[string]*formingTimer)
	s.pool.Flush("")
}

// admit routes one request into the pool, parking it in the bounded
// overflow when every context is Busy and shedding with 503 past that.
func (s *CohortServer) admit(lr *liveReq) {
	lr.admitted = time.Now()
	lr.spans = append(lr.spans, obs.Span{Name: "admit-queue", Start: lr.enq, Dur: lr.admitted.Sub(lr.enq)})
	if s.ctrl != nil && s.ctrl.Arrival(int(lr.t)) {
		s.dispatchHost(lr)
		return
	}
	if s.place(lr) {
		return
	}
	if len(s.overflow) >= s.opts.OverflowLimit {
		s.rejectedPool++
		s.shedReq(lr)
		return
	}
	s.overflow = append(s.overflow, lr)
}

// shedReq answers one admitted request with the 503 backpressure
// response, attributing the shed to its workload's counter.
func (s *CohortServer) shedReq(lr *liveReq) {
	s.wlSheds[s.reg.WorkloadIndex(lr.t)].Add(1)
	s.bad[lr.t].Add(1)
	lr.frec.Status = flight.StatusShed
	lr.resp <- busyResponse(s.retryAfter())
}

// dispatchHost routes one request below the crossover rate straight to
// the scalar host path as a single-request Host unit: no cohort context,
// no formation delay. The fabric still executes it on the node and
// device that own the request's shard group, so responses stay
// byte-identical and the group state single-writer.
func (s *CohortServer) dispatchHost(lr *liveReq) {
	unit := &cluster.Unit{Type: lr.t, Group: lr.group, Host: true, Reqs: []httpx.Request{lr.req}}
	s.inflight++
	unit.Done = func(res *cluster.Result) {
		s.doCh <- func() { s.completeHost(lr, res) }
	}
	if !s.fab.Dispatch(unit) {
		s.inflight--
		s.rejectedPool++
		s.shedReq(lr)
	}
}

// completeHost consumes one host-fallback result on the loop goroutine.
func (s *CohortServer) completeHost(lr *liveReq, res *cluster.Result) {
	s.inflight--
	if res.Err != nil {
		s.rejectedPool++
		s.shedReq(lr)
		return
	}
	s.hostFallbacks++
	s.typeStats(lr.t).hostReqs++
	s.kernelErrors += uint64(res.KernelErrs)
	if res.KernelErrs == 0 {
		s.cachePut(lr.t, lr.slot, &lr.req, res.Resps[0])
	}
	lr.spans = append(lr.spans, obs.Span{Name: "host-execute", Start: res.RenderStart, Dur: res.RenderDur})
	lr.frec.HostExec = true
	lr.frec.LaunchReason = "host"
	lr.frec.Device = res.Device
	// A hop is a failover to another device; fold it into the record's
	// attempt trail so tail debugging sees the move (flight.Record).
	lr.frec.Attempts = res.Attempts + res.Hops
	lr.frec.CohortSize = 1
	if res.KernelErrs > 0 {
		lr.frec.Status = flight.StatusKernelErr
		s.bad[lr.t].Add(1)
	}
	id := lr.frec.TraceID // read before the send hands frec to the handler
	lr.resp <- res.Resps[0]
	lat := float64(time.Since(lr.enq))
	s.record(s.reqLat, lat)
	s.latHist[lr.t].ObserveEx(lat, id)
}

// place tries pool admission; on success it manages the wall-clock
// formation timer for the (possibly newly opened) forming cohort.
// Cohorts are keyed by (type, shard group): a cohort executes against
// one group's state on one device, so requests of the same type but
// different groups form separately. An Add to an idle key launches
// through the advisor, so a timer is only armed while the key is busy.
func (s *CohortServer) place(lr *liveReq) bool {
	key := s.keys[lr.t][lr.group+1]
	if !s.pool.Add(key, lr) {
		return false
	}
	if s.draining {
		// No timers during drain: launch whatever the Add left forming.
		s.pool.Flush(key)
		return true
	}
	// The formation deadline: the controller's per-type window in
	// adaptive mode, the fixed option otherwise.
	window := s.opts.FormationTimeout
	if s.ctrl != nil {
		window = s.ctrl.Window(int(lr.t))
	}
	if window > 0 && s.pool.Forming(key) && s.forming[key] == nil {
		s.nextGen++
		gen := s.nextGen
		t := time.AfterFunc(window, func() {
			select {
			case s.flushCh <- flushMsg{key: key, gen: gen}:
			case <-s.doneCh:
			}
		})
		s.forming[key] = &formingTimer{timer: t, gen: gen}
	}
	return true
}

// flush handles a formation-timeout message, ignoring stale generations
// (the cohort the timer was armed for already launched).
func (s *CohortServer) flush(m flushMsg) {
	f := s.forming[m.key]
	if f == nil || f.gen != m.gen {
		return
	}
	delete(s.forming, m.key)
	s.pool.Flush(m.key)
}

// drainOverflow retries parked requests after a context frees,
// preserving order per type while letting other types pass a starved
// head (same policy as the offline pipeline's dispatch).
func (s *CohortServer) drainOverflow() {
	if len(s.overflow) == 0 {
		return
	}
	pending := s.overflow
	s.overflow = s.overflow[:0]
	for _, lr := range pending {
		if !s.place(lr) {
			s.overflow = append(s.overflow, lr)
		}
	}
}

// onReady fires (synchronously from pool.Add, Launch or Flush) when a
// cohort is formed: mark its key busy, account formation stats and
// launch the kernels.
func (s *CohortServer) onReady(c *cohort.Context[*liveReq], why cohort.Reason) {
	if f := s.forming[c.Key]; f != nil {
		f.timer.Stop()
		delete(s.forming, c.Key)
	}
	c.MarkBusy()
	s.inflight++
	s.busy[c.Key]++
	s.launch(c, why)
}

// typeStats returns (creating on demand) the counters for a request
// type, with one stage slot per stage kernel.
func (s *CohortServer) typeStats(t service.TypeID) *typeCounters {
	key := s.names[t]
	tc := s.perType[key]
	if tc == nil {
		tc = &typeCounters{stages: make([]perStage, s.reg.Spec(t).Backends+1)}
		s.perType[key] = tc
	}
	return tc
}

// launch hands one formed cohort to the device fabric as a
// cluster.Unit. Routing (node ownership by rendezvous hash, then the
// owning node's device-level session affinity and failover) is the
// fabric's job; completion comes back to the loop goroutine via doCh
// and lands in complete. A refusal — every node down, the owner's link
// budget exhausted, or its queues full — sheds every request with the
// 503 path.
func (s *CohortServer) launch(c *cohort.Context[*liveReq], why cohort.Reason) {
	reqs := c.Requests()
	t := reqs[0].t
	count := len(reqs)
	now := time.Now()
	reason := why.String()
	for _, lr := range reqs {
		wait := float64(now.Sub(lr.enq))
		s.record(s.formWait, wait)
		s.formHist.Observe(wait)
		lr.spans = append(lr.spans, obs.Span{Name: "formation-wait", Start: lr.admitted, Dur: now.Sub(lr.admitted)})
		lr.frec.FormationWait = now.Sub(lr.admitted)
		lr.frec.CohortSize = count
		lr.frec.LaunchReason = reason
	}
	s.occupHist.Observe(float64(count))
	tc := s.typeStats(t)
	tc.cohorts++
	tc.requests += uint64(count)
	tc.sumOccup += uint64(count)
	if count > tc.maxOccup {
		tc.maxOccup = count
	}
	if count > s.maxOccup {
		s.maxOccup = count
	}
	switch why {
	case cohort.Filled:
		tc.filled++
	case cohort.Early:
		tc.early++
	case cohort.Idle:
		tc.idle++
	default:
		tc.timedOut++
	}
	unit := &cluster.Unit{Type: t, Group: reqs[0].group, Reqs: make([]httpx.Request, count)}
	for i, lr := range reqs {
		unit.Reqs[i] = lr.req
	}
	unit.Done = func(res *cluster.Result) {
		// Runs on a device worker. The loop cannot have exited: it only
		// returns at inflight 0, and this cohort still counts. The send
		// therefore always completes.
		s.doCh <- func() { s.complete(c, res) }
	}
	if !s.fab.Dispatch(unit) {
		s.shed(c, reqs)
	}
}

// shed answers every request of a refused cohort with the 503
// backpressure response and releases its context.
func (s *CohortServer) shed(c *cohort.Context[*liveReq], reqs []*liveReq) {
	s.shedCohorts++
	for _, lr := range reqs {
		s.shedReq(lr)
	}
	s.finish(c)
}

// finish releases a cohort context and, when that leaves its key with
// nothing in flight, launches the key's forming cohort at once; then it
// retries parked admissions.
func (s *CohortServer) finish(c *cohort.Context[*liveReq]) {
	key := c.Key
	s.pool.Release(c)
	s.inflight--
	if s.busy[key]--; s.busy[key] == 0 {
		delete(s.busy, key)
		s.pool.Launch(key, cohort.Idle)
	}
	s.drainOverflow()
}

// complete consumes one cohort's execution result on the loop
// goroutine: per-stage accounting and spans, response delivery, and
// context release. A unit the fabric could not complete (Result.Err —
// every device dead, no routable node, or a connection lost with the
// unit's fate unknown) sheds like a dispatch refusal.
func (s *CohortServer) complete(c *cohort.Context[*liveReq], res *cluster.Result) {
	reqs := c.Requests()
	if res.Err != nil {
		s.shed(c, reqs)
		return
	}
	tc := s.typeStats(reqs[0].t)
	for k, se := range res.Stages {
		tc.stages[k].Launches++
		tc.stages[k].DeviceUs += float64(se.Stats.Duration) / 1e3
		// One span per request, sharing the launch-record linkage args
		// (the map is read-only once built).
		span := obs.Span{
			Name:  fmt.Sprintf("stage-%d", k),
			Start: se.Start,
			Dur:   se.Dur,
			Args:  stageArgs(se.Stats),
		}
		for _, lr := range reqs {
			lr.spans = append(lr.spans, span)
			lr.frec.AddLaunch(se.Stats.Seq)
		}
	}
	s.kernelErrors += uint64(res.KernelErrs)
	now := time.Now()
	for i, lr := range reqs {
		// Conservative insertion gate: a cohort with any kernel error is
		// not cached (per-request errors are only aggregated).
		if res.KernelErrs == 0 {
			s.cachePut(lr.t, lr.slot, &lr.req, res.Resps[i])
		}
		lr.spans = append(lr.spans, obs.Span{Name: "render", Start: res.RenderStart, Dur: res.RenderDur})
		lr.frec.Device = res.Device
		lr.frec.Attempts = res.Attempts + res.Hops
		if res.KernelErrs > 0 {
			// Kernel errors are aggregated per cohort, not attributed per
			// request, so every rider is flagged (conservative).
			lr.frec.Status = flight.StatusKernelErr
			s.bad[lr.t].Add(1)
		}
		id := lr.frec.TraceID // read before the send hands frec to the handler
		lr.resp <- res.Resps[i]
		lat := float64(now.Sub(lr.enq))
		s.record(s.reqLat, lat)
		s.latHist[lr.t].ObserveEx(lat, id)
	}
	s.record(s.launchLat, float64(res.DeviceTime))
	if s.ctrl != nil {
		// Feed the service model with the wall-clock execution cost of
		// this cohort — stage kernels plus response render — which is
		// what bounds the live server's capacity.
		var svc time.Duration
		for _, se := range res.Stages {
			svc += se.Dur
		}
		svc += res.RenderDur
		s.ctrl.ObserveLaunch(int(reqs[0].t), len(reqs), svc)
	}
	s.finish(c)
}

// maxLatencySamples bounds the stats recorders so a long-lived server
// doesn't grow without bound; past the cap the percentiles freeze on the
// first N samples (counters keep counting).
const maxLatencySamples = 1 << 20

func (s *CohortServer) record(r *stats.LatencyRecorder, v float64) {
	if r.Count() < maxLatencySamples {
		if v < 0 {
			v = 0
		}
		r.Record(v)
	}
}

// Stats snapshots the live counters. Safe to call at any time; while
// the loop runs the snapshot is taken on the loop goroutine.
func (s *CohortServer) Stats() CohortServerStats {
	reply := make(chan CohortServerStats, 1)
	select {
	case s.doCh <- func() { reply <- s.snapshot() }:
		select {
		case st := <-reply:
			return st
		case <-s.doneCh:
			return s.snapshot() // loop exited without running the closure
		}
	case <-s.doneCh:
		return s.snapshot() // loop gone: its state is quiescent, safe to read
	}
}

func (s *CohortServer) snapshot() CohortServerStats {
	ps := s.pool.Stats()
	// One pass over the fabric: per-node counters under the fabric
	// lock, then each node's cluster snapshot (an RPC for remote
	// workers, stale-cached when one is unreachable). The flattened
	// device view keeps the single-cluster stats sections meaningful
	// at any node count.
	cs := s.fab.Snapshot()
	st := CohortServerStats{
		SchemaVersion:    StatsSchemaVersion,
		Mode:             "cohort",
		Workloads:        workloadNames(s.reg),
		Served:           s.served.Load(),
		KernelErrors:     s.kernelErrors,
		ParseErrors:      s.parseErrors.Load(),
		NotFound:         s.notFound.Load(),
		Images:           s.images.Load(),
		RejectedQueue:    s.rejectedQueue.Load(),
		RejectedPool:     s.rejectedPool,
		DeadlineMisses:   s.deadlineMisses.Load(),
		CohortsFormed:    ps.Formed,
		CohortsFilled:    ps.Filled,
		CohortsTimedOut:  ps.TimedOut,
		CohortsEarly:     ps.Early,
		CohortsIdle:      ps.Idle,
		HostFallbacks:    s.hostFallbacks,
		RequestsBatched:  ps.Requests,
		AdmissionStalls:  ps.Stalls,
		SumOccupancy:     ps.SumOccup,
		MeanOccupancy:    ps.MeanOccupancy(),
		MaxOccupancy:     s.maxOccup,
		MaxContexts:      ps.MaxInUse,
		FormWaitMsMean:   s.formWait.Mean() / 1e6,
		FormWaitMsP99:    s.formWait.Percentile(99) / 1e6,
		LaunchDevUsMean:  s.launchLat.Mean() / 1e3,
		LatencyMsP50:     s.reqLat.Percentile(50) / 1e6,
		LatencyMsP99:     s.reqLat.Percentile(99) / 1e6,
		Device:           cs.Aggregate,
		ProfiledLaunches: cs.ProfiledLaunches,
		Devices:          cs.Devices,
		Failovers:        cs.Failovers,
		DeviceRetries:    cs.Retries,
		ShedCohorts:      s.shedCohorts,
		Transport:        cs.Transport,
		Nodes:            cs.Nodes,
		NodeFailovers:    cs.NodeFailovers,
		NodeRetries:      cs.NodeRetries,
		LinkSheds:        cs.LinkSheds,
		LostUnits:        cs.LostUnits,
		FlightRequests:   s.flight.Total(),
		FlightAnomalies:  s.flight.Promoted(),
		Types:            make(map[string]CohortTypeStats, len(s.perType)),
	}
	st.WorkloadSheds = make(map[string]uint64, len(s.wlSheds))
	for i, w := range s.reg.Workloads() {
		st.WorkloadSheds[w.Name()] = s.wlSheds[i].Load()
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheInvalidations = cs.Invalidations
		st.CacheEntries = cs.Entries
	}
	if s.ctrl != nil {
		snap := s.ctrl.Snapshot()
		st.Adapt = &snap
	}
	for key, tc := range s.perType {
		ts := CohortTypeStats{
			Workload:     s.workloadOfDisplay(key),
			Cohorts:      tc.cohorts,
			Filled:       tc.filled,
			TimedOut:     tc.timedOut,
			Early:        tc.early,
			Idle:         tc.idle,
			Requests:     tc.requests,
			HostRequests: tc.hostReqs,
			MaxOccupancy: tc.maxOccup,
			Stages:       append([]perStage(nil), tc.stages...),
		}
		if tc.cohorts > 0 {
			ts.MeanOccupancy = float64(tc.sumOccup) / float64(tc.cohorts)
		}
		st.Types[key] = ts
	}
	return st
}

func (s *CohortServer) statsDoc() any { return s.Stats() }

// topology is the /v1/topology document: the fabric's node-level view —
// transport kind, per-node health, routed groups, dispatch/completion
// counters, link budgets and saturation sheds, and each node's own
// cluster snapshot.
func (s *CohortServer) topology() any { return s.fab.Snapshot() }

// workloadOfDisplay resolves a per-type stats key (a workload-qualified
// display label) back to its owning workload's name.
func (s *CohortServer) workloadOfDisplay(key string) string {
	if t, ok := s.reg.ByDisplay(key); ok {
		return s.reg.Spec(t).Workload
	}
	return ""
}

// typeLabel is the Prometheus label set for a per-type stats key
// (workload + type).
func (s *CohortServer) typeLabel(key string) string {
	if t, ok := s.reg.ByDisplay(key); ok {
		return s.labels[t]
	}
	return obs.Label("type", key)
}

// writeMetrics emits the cohort-mode families. Loop-owned counters come
// through the Stats() snapshot (taken on the loop goroutine); histograms
// are atomic and read directly.
func (s *CohortServer) writeMetrics(w *obs.PromWriter) {
	st := s.Stats()
	names := sortedTypeKeys(st.Types)
	w.Family("rhythm_requests_total", "counter", "Requests executed through the cohort pipeline, by workload and type.")
	for _, name := range names {
		w.Value("rhythm_requests_total", s.typeLabel(name), float64(st.Types[name].Requests))
	}
	w.Family("rhythm_cohorts_total", "counter", "Cohorts launched, by workload, type, and formation result.")
	for _, name := range names {
		w.Value("rhythm_cohorts_total", s.typeLabel(name)+`,result="filled"`, float64(st.Types[name].Filled))
		w.Value("rhythm_cohorts_total", s.typeLabel(name)+`,result="timeout"`, float64(st.Types[name].TimedOut))
		w.Value("rhythm_cohorts_total", s.typeLabel(name)+`,result="early"`, float64(st.Types[name].Early))
		w.Value("rhythm_cohorts_total", s.typeLabel(name)+`,result="idle"`, float64(st.Types[name].Idle))
	}
	w.Family("rhythm_requests_batched_total", "counter", "Requests that rode a cohort launch.")
	w.Value("rhythm_requests_batched_total", "", float64(st.RequestsBatched))
	w.Family("rhythm_http_errors_total", "counter", "Error responses by status code (503 = shed, 504 = deadline miss).")
	w.Value("rhythm_http_errors_total", obs.Label("code", "400"), float64(st.ParseErrors))
	w.Value("rhythm_http_errors_total", obs.Label("code", "404"), float64(st.NotFound))
	w.Value("rhythm_http_errors_total", obs.Label("code", "503"), float64(st.RejectedQueue+st.RejectedPool))
	w.Value("rhythm_http_errors_total", obs.Label("code", "504"), float64(st.DeadlineMisses))
	w.Family("rhythm_images_total", "counter", "Static image responses.")
	w.Value("rhythm_images_total", "", float64(st.Images))
	w.Family("rhythm_kernel_errors_total", "counter", "Requests whose kernel execution reported an error.")
	w.Value("rhythm_kernel_errors_total", "", float64(st.KernelErrors))
	w.Family("rhythm_formation_wait_seconds", "histogram", "Admission-to-launch wait (the Fig. 4 formation delay).")
	w.Histogram("rhythm_formation_wait_seconds", "", s.formHist.Snapshot(), 1e-9)
	w.Family("rhythm_cohort_occupancy", "histogram", "Requests per launched cohort.")
	w.Histogram("rhythm_cohort_occupancy", "", s.occupHist.Snapshot(), 1)
	writeDeviceFamilies(w, st.Device, st.ProfiledLaunches)
	writeClusterFamilies(w, st)
	writeFabricFamilies(w, st)
	writeAdaptFamilies(w, st)
}

// launchFloors and launchesSince feed /v1/trace's device track. Launch
// sequence numbers are per device, so the capture floor is too: each
// node cluster filters its rings before the fabric merges them (empty
// with remote workers — their rings live in the worker process).
func (s *CohortServer) launchFloors() [][]uint64 { return s.fab.LaunchFloors() }

func (s *CohortServer) launchesSince(floors [][]uint64) []simt.LaunchRecord {
	return s.fab.ProfilesSince(floors)
}

// busyResponse is the backpressure answer: 503 with a Retry-After hint.
// Hand-built because ResponseWriter has no custom-header hook and the
// standard error path closes the connection — load shedding should keep
// it open so clients can retry on the same socket.
func busyResponse(retryAfter time.Duration) []byte {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	body := "503 cohort pool saturated\n"
	return []byte(fmt.Sprintf("HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: %d\r\nConnection: keep-alive\r\nContent-Length: %d\r\n\r\n%s",
		secs, len(body), body))
}
