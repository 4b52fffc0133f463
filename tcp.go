package rhythm

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// TCPServer serves the registered workloads over a real TCP listener
// using the host execution path — the same service code the device
// kernels run, so responses are identical. It is the shared frontend
// plus the host executor: lock, execute, render into the connection
// arena.
type TCPServer struct {
	*frontend

	// bes holds one backend store per workload (this server is a single
	// shard group).
	bes []service.Backend

	// mu guards the workload state (backends + sessions are
	// single-writer by design). It is held only across Execute — never
	// across connection I/O — so a slow client can't serialize the server
	// (request parsing and page rendering run lock-free).
	mu       sync.Mutex
	sessions *session.Array
	// failed counts executions that reported a service error; typeCounts
	// counts executions per type (rhythm_requests_total).
	failed     atomic.Uint64
	typeCounts []atomic.Uint64
}

// NewTCPServer builds a TCP server over the default registry with
// capacity for maxSessions live sessions.
func NewTCPServer(maxSessions int) *TCPServer {
	return NewTCPServerFor(DefaultRegistry(), maxSessions)
}

// NewTCPServerFor builds a TCP server serving reg's workloads.
func NewTCPServerFor(reg *service.Registry, maxSessions int) *TCPServer {
	if maxSessions < 256 {
		maxSessions = 256
	}
	s := &TCPServer{
		bes:        reg.NewBackends(),
		sessions:   session.NewArray(256, maxSessions/256*4+4),
		typeCounts: make([]atomic.Uint64, reg.NumTypes()),
	}
	s.frontend = newFrontend(s, reg, frontendConfig{mode: "host", arenaOut: reg.MaxBufferBytes()})
	return s
}

// EnableRenderCache attaches a whole-page render cache of at most
// entries pages, invalidated by every workload backend's write hook.
// Call before Serve.
func (s *TCPServer) EnableRenderCache(entries int) {
	s.cache = rcache.New(entries)
	for _, be := range s.bes {
		be.SetWriteHook(s.cache.Invalidate)
	}
}

// ConfigureFlight replaces the flight recorder with one built from cfg.
// Call before Serve.
func (s *TCPServer) ConfigureFlight(cfg flight.Config) { s.flight = flight.New(cfg) }

// ConfigureHealth rebuilds the SLO burn-rate engine from cfg. Call
// before Serve.
func (s *TCPServer) ConfigureHealth(cfg health.Config) { s.hEngine = s.newHealthEngine(cfg) }

// Errors reports how many answered requests failed (parse errors,
// unknown paths, failed service executions).
func (s *TCPServer) Errors() uint64 {
	return s.parseErrors.Load() + s.notFound.Load() + s.failed.Load()
}

// Close stops the listener; Drain also closes the connections.
func (s *TCPServer) Close() error { return s.closeListener() }

// Snapshot returns the host-mode stats document.
func (s *TCPServer) Snapshot() ServerStats {
	doc := s.statsDocument()
	return ServerStats{Mode: "host", Host: &doc}
}

// execute runs one classified request on the host path. Only the
// service execution itself takes the server lock; rendering happens
// after it (the scratch ctx is private to this goroutine once Execute
// returns).
func (s *TCPServer) execute(a *connArena, t service.TypeID, slot cacheSlot) ([]byte, []obs.Span) {
	start := a.frec.Start
	classified := time.Now()
	s.typeCounts[t].Add(1)
	a.frec.HostExec = true
	a.frec.Attempts = 1

	// Page workloads run the zero-copy arena path (scratch ctx + reused
	// render buffer); any other workload executes through the registry's
	// scalar host surface, which allocates its response.
	var (
		resp     []byte
		failed   bool
		executed time.Time
	)
	wi := s.reg.WorkloadIndex(t)
	if pw, ok := s.reg.Workloads()[wi].(*service.PageWorkload); ok {
		s.mu.Lock()
		ctx := a.scratch.Execute(pw, s.reg.Spec(t).Local, &a.req, s.sessions, s.bes[wi], true)
		s.mu.Unlock()
		executed = time.Now()
		failed = ctx.Err != ""
		resp = pw.Render(ctx, a.out[:ctx.Def.BufferBytes])
	} else {
		s.mu.Lock()
		resp, failed = s.reg.ExecuteHost(t, &a.req, s.sessions, s.bes)
		s.mu.Unlock()
		executed = time.Now()
	}
	rendered := time.Now()
	if failed {
		s.failed.Add(1)
		a.frec.Status = flight.StatusError
	} else {
		s.cachePut(t, slot, &a.req, resp)
	}
	s.latHist[t].ObserveEx(float64(rendered.Sub(start)), a.frec.TraceID)
	return resp, []obs.Span{
		{Name: "classify", Start: start, Dur: classified.Sub(start)},
		{Name: "execute", Start: classified, Dur: executed.Sub(classified)},
		{Name: "render", Start: executed, Dur: rendered.Sub(executed)},
	}
}

// sessionsFor: host mode has one session array.
func (s *TCPServer) sessionsFor(*httpx.Request, service.TypeID) *session.Array { return s.sessions }

func (s *TCPServer) statsDoc() any { return s.statsDocument() }

// statsDocument builds the host-mode /v1/stats payload.
func (s *TCPServer) statsDocument() HostStats {
	st := HostStats{
		SchemaVersion:   StatsSchemaVersion,
		Mode:            "host",
		Workloads:       workloadNames(s.reg),
		Served:          s.served.Load(),
		Errors:          s.Errors(),
		FlightRequests:  s.flight.Total(),
		FlightAnomalies: s.flight.Promoted(),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.CacheHits = cs.Hits
		st.CacheMisses = cs.Misses
		st.CacheInvalidations = cs.Invalidations
		st.CacheEntries = cs.Entries
	}
	return st
}

// writeMetrics emits the host-mode families. Every counter here is
// atomic, so the scrape is race-free without touching the server lock.
func (s *TCPServer) writeMetrics(w *obs.PromWriter) {
	w.Family("rhythm_request_errors_total", "counter", "Requests that failed (parse, unknown path, service error).")
	w.Value("rhythm_request_errors_total", "", float64(s.Errors()))
	w.Family("rhythm_requests_total", "counter", "Requests executed on the host path, by workload and type.")
	for i := range s.typeCounts {
		if n := s.typeCounts[i].Load(); n > 0 {
			w.Value("rhythm_requests_total", s.labels[i], float64(n))
		}
	}
}

// Host mode has no device fabric: no topology and no device launches.
func (s *TCPServer) topology() any                                { return nil }
func (s *TCPServer) launchFloors() [][]uint64                     { return nil }
func (s *TCPServer) launchesSince([][]uint64) []simt.LaunchRecord { return nil }
func (s *TCPServer) drain(context.Context) error                  { return nil }

// HostStats is the /v1/stats document of a host-mode server.
type HostStats struct {
	SchemaVersion int    `json:"schema_version"`
	Mode          string `json:"mode"`
	// Workloads lists the registered workload names in registration
	// order (schema_version 4).
	Workloads []string `json:"workloads"`
	Served    uint64   `json:"served"`
	// Errors counts parse errors (400 and 431), unknown paths (404), and
	// failed service executions.
	Errors uint64 `json:"errors"`
	// Render-cache counters (zero when the cache is disabled).
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       uint64 `json:"cache_entries"`
	// Flight-recorder counters (DESIGN.md §15).
	FlightRequests  uint64 `json:"flight_requests"`
	FlightAnomalies uint64 `json:"flight_anomalies"`
}
