package rhythm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/backend"
	"rhythm/internal/flight"
	"rhythm/internal/httpx"
	"rhythm/internal/obs"
	"rhythm/internal/obs/health"
	"rhythm/internal/rcache"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

// executor is the half of a live server that differs between serving
// modes: it turns a classified request into response bytes. The
// frontend owns everything else (DESIGN.md §9). TCPServer runs requests
// on the scalar host path; CohortServer batches them into cohorts on
// the device fabric.
type executor interface {
	// execute answers the classified request a.req of type t. a.frec is
	// armed (trace ID, type, start) and the executor fills in the rest;
	// slot is the render-cache insertion key of a cache miss. It returns
	// the response and the request's lifecycle spans (nil = untraced),
	// to which the frontend appends the write span.
	execute(a *connArena, t service.TypeID, slot cacheSlot) ([]byte, []obs.Span)
	// sessionsFor returns the session array that resolves req's session
	// cookie for a render-cache lookup (nil = no lookup).
	sessionsFor(req *httpx.Request, t service.TypeID) *session.Array
	// statsDoc is the /v1/stats document.
	statsDoc() any
	// writeMetrics writes the executor's own /v1/metrics families.
	writeMetrics(w *obs.PromWriter)
	// topology is the /v1/topology document (nil = not served).
	topology() any
	// launchFloors and launchesSince feed the device track of /v1/trace:
	// launchesSince(nil) is every buffered launch, and launchesSince of
	// an earlier launchFloors only those recorded after it.
	launchFloors() [][]uint64
	launchesSince(floors [][]uint64) []simt.LaunchRecord
	// drain finishes in-flight work once the listener is closed and new
	// work is refused; ctx bounds the wait.
	drain(ctx context.Context) error
}

// frontendConfig is what a server constructor hands newFrontend.
type frontendConfig struct {
	// mode labels rhythm_build_info ("host" or "cohort").
	mode string
	// arenaOut sizes each connection arena's render buffer (0 = a
	// parse-only arena: the executor renders elsewhere).
	arenaOut int
	// traceCap bounds the request-trace ring (0 = obs default).
	traceCap int
	flight   flight.Config
	health   health.Config
}

// frontend is the host side every live server shares: the listener and
// its lifecycle, the tracked connection set and graceful drain, the
// per-connection arena and keep-alive loop, the control-plane router,
// parse → classify → static/404, the render-cache lookup, the flight
// record and its X-Rhythm-Trace header, and the per-type latency
// histograms behind /v1/metrics and /v1/health (DESIGN.md §9).
type frontend struct {
	ex       executor
	mode     string
	arenaOut int
	// reg is the workload registry; names its display-label universe
	// indexed by TypeID, labels the per-type Prometheus label sets.
	reg    *service.Registry
	names  []string
	labels []string

	lnMu    sync.Mutex // listener only
	ln      net.Listener
	closing atomic.Bool

	// conns is the tracked connection set graceful drain closes.
	connMu sync.Mutex
	conns  map[*liveConn]struct{}
	connWG sync.WaitGroup

	served      atomic.Uint64
	parseErrors atomic.Uint64 // 400s and 431s
	notFound    atomic.Uint64
	images      atomic.Uint64

	// Observability surfaces, safe from any goroutine: the request-trace
	// ring behind /v1/trace, the latency histograms behind /v1/metrics,
	// and bad, per-type requests that never reach latHist (sheds,
	// deadline misses, kernel errors), so /v1/health's totals see them.
	tracer  *obs.Recorder
	latHist []*stats.Histogram // per service.TypeID, nanoseconds
	bad     []atomic.Uint64    // per service.TypeID

	// flight is the always-on tail-latency recorder behind
	// /v1/debug/flight, and hEngine the SLO burn-rate engine behind
	// /v1/health. captureBusy serializes blocking ?secs=N trace captures
	// (concurrent captures answer 429; DESIGN.md §15).
	flight      *flight.Recorder
	hEngine     *health.Engine
	captureBusy atomic.Bool

	// cache, when non-nil, is the whole-page render cache; hits are
	// answered before the executor runs.
	cache *rcache.Cache
}

func newFrontend(ex executor, reg *service.Registry, cfg frontendConfig) *frontend {
	f := &frontend{
		ex:       ex,
		mode:     cfg.mode,
		arenaOut: cfg.arenaOut,
		reg:      reg,
		names:    reg.DisplayNames(),
		labels:   typeLabelSets(reg),
		conns:    make(map[*liveConn]struct{}),
		tracer:   obs.NewRecorder(cfg.traceCap),
		latHist:  newLatencyHistograms(reg.NumTypes()),
		bad:      make([]atomic.Uint64, reg.NumTypes()),
		flight:   flight.New(cfg.flight),
	}
	f.hEngine = f.newHealthEngine(cfg.health)
	return f
}

// newHealthEngine wires a burn-rate engine to the latency histograms
// and the bad-event counts.
func (f *frontend) newHealthEngine(cfg health.Config) *health.Engine {
	if cfg.SLO <= 0 {
		cfg.SLO = defaultHealthSLO
	}
	sloNs := float64(cfg.SLO)
	return health.New(cfg, func() map[string]health.Counts {
		return sloCounts(f.names, f.latHist, sloNs, f.bad)
	})
}

// Seed reports the deterministic banking credentials for userID. Every
// backend synthesizes the same profile for a userID on first touch, so
// no state needs creating up front.
func (f *frontend) Seed(userID uint64) (uint64, string) {
	return userID, backend.PasswordFor(userID)
}

// Addr reports the bound address once Listen has been called.
func (f *frontend) Addr() net.Addr {
	f.lnMu.Lock()
	defer f.lnMu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Addr()
}

// Served reports how many responses have been produced (including error
// and shed responses).
func (f *frontend) Served() uint64 { return f.served.Load() }

// Listen binds the listener without serving (so callers can learn the
// port before Serve blocks).
func (f *frontend) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	f.lnMu.Lock()
	f.ln = ln
	f.lnMu.Unlock()
	return nil
}

// Serve accepts connections until the listener is closed.
func (f *frontend) Serve() error {
	f.lnMu.Lock()
	ln := f.ln
	f.lnMu.Unlock()
	if ln == nil {
		return errors.New("rhythm: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go f.serveConn(conn)
	}
}

// ListenAndServe binds addr and serves until the listener closes.
func (f *frontend) ListenAndServe(addr string) error {
	if err := f.Listen(addr); err != nil {
		return err
	}
	return f.Serve()
}

// closeListener stops accepting connections.
func (f *frontend) closeListener() error {
	f.lnMu.Lock()
	defer f.lnMu.Unlock()
	if f.ln == nil {
		return nil
	}
	return f.ln.Close()
}

// Drain shuts down gracefully: stop accepting, refuse new work, let the
// executor finish what it admitted, then close connections (idle ones
// immediately, busy ones after their current write). ctx bounds the
// wait.
func (f *frontend) Drain(ctx context.Context) error {
	f.closing.Store(true)
	f.closeListener()
	if err := f.ex.drain(ctx); err != nil {
		return err
	}
	// Every admitted request now has its response; handlers parked in a
	// read can only produce refused work, so closing them is safe.
	// Handlers mid-write finish first — the busy flag protects them.
	//
	// Barrier: a handler that saw closing==false completes its WaitGroup
	// registration (under connMu) before we start waiting.
	//lint:ignore SA2001 the empty critical section is the barrier
	f.connMu.Lock()
	f.connMu.Unlock()
	waited := make(chan struct{})
	go func() {
		f.connWG.Wait()
		close(waited)
	}()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		f.connMu.Lock()
		for lc := range f.conns {
			if !lc.busy.Load() {
				lc.Close()
			}
		}
		f.connMu.Unlock()
		select {
		case <-waited:
			return nil
		case <-ctx.Done():
			f.connMu.Lock()
			for lc := range f.conns {
				lc.Close()
			}
			f.connMu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// liveConn wraps an accepted connection with a busy flag so graceful
// drain can close idle (reading) connections while letting a handler
// mid-response finish its write.
type liveConn struct {
	net.Conn
	busy atomic.Bool
}

// connArena holds the per-connection reusable buffers of the zero-copy
// hot path: the raw request bytes, the parsed request (param/cookie
// slices recycled by ParseInto), the page-workload execution scratch,
// and a max-size render buffer. One arena serves every request on its
// connection, so the steady state allocates nothing but the parse's
// raw-to-string conversion — see DESIGN.md §14.
type connArena struct {
	raw     []byte
	req     httpx.Request
	scratch *service.Scratch
	out     []byte
	// frec is the connection's flight-record scratch: armed per
	// classified request and either recycled (fast path) or copied into
	// the anomaly ring by Finish (DESIGN.md §15). wbuf is the reusable
	// write buffer the X-Rhythm-Trace header is spliced into, so cached
	// and rendered response bytes are never mutated.
	frec flight.Record
	wbuf []byte
}

// newConnArena builds an arena whose render buffer holds maxOut bytes
// (the registry's largest response class). maxOut 0 builds a parse-only
// arena without the host execution buffers.
func newConnArena(maxOut int) *connArena {
	a := &connArena{raw: make([]byte, 0, 1024)}
	if maxOut > 0 {
		a.scratch = service.NewScratch()
		a.out = make([]byte, maxOut)
	}
	return a
}

// connTimeout bounds each read and each write on a connection.
const connTimeout = 30 * time.Second

// serveConn serves one keep-alive connection.
func (f *frontend) serveConn(conn net.Conn) {
	lc := &liveConn{Conn: conn}
	f.connMu.Lock()
	if f.closing.Load() {
		f.connMu.Unlock()
		conn.Close()
		return
	}
	f.conns[lc] = struct{}{}
	f.connWG.Add(1)
	f.connMu.Unlock()
	defer func() {
		conn.Close()
		f.connMu.Lock()
		delete(f.conns, lc)
		f.connMu.Unlock()
		f.connWG.Done()
	}()
	r := bufio.NewReader(conn)
	a := newConnArena(f.arenaOut)
	for {
		conn.SetReadDeadline(time.Now().Add(connTimeout))
		raw, err := readRequestInto(r, a.raw[:0])
		a.raw = raw // keep grown capacity for the next request
		if err != nil {
			if errors.Is(err, errHeaderTooLarge) {
				f.served.Add(1)
				f.parseErrors.Add(1)
				rejectConn(conn, errorResponse(431, "Request Header Fields Too Large"))
			}
			return
		}
		lc.busy.Store(true)
		resp, spans, id := f.respond(a, raw)
		conn.SetWriteDeadline(time.Now().Add(connTimeout))
		wstart := time.Now()
		wout := resp
		if id != 0 {
			a.wbuf = spliceTraceHeader(a.wbuf, resp, id)
			wout = a.wbuf
		}
		_, werr := conn.Write(wout)
		lc.busy.Store(false)
		f.commit(a, spans, id, wstart)
		if werr != nil || f.closing.Load() {
			return
		}
	}
}

// rejectConn answers a request the frontend refuses to read and closes
// the connection. It half-closes and briefly drains the unread input
// first, so the client reads the reply rather than a reset.
func rejectConn(conn net.Conn, resp []byte) {
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := conn.Write(resp); err != nil {
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	io.Copy(io.Discard, io.LimitReader(conn, maxHeaderBytes))
}

// respond answers one request using the connection's arena: parse, the
// control-plane router, classify, static/404, the render-cache lookup,
// and then the executor. It returns the response, the lifecycle spans
// to commit after the write (nil = untraced), and the flight trace ID
// (non-zero means a.frec is armed and commit must finish it).
func (f *frontend) respond(a *connArena, raw []byte) ([]byte, []obs.Span, uint64) {
	f.served.Add(1)
	start := time.Now()
	req := &a.req
	if err := httpx.ParseInto(raw, req); err != nil {
		f.parseErrors.Add(1)
		return errorResponse(400, "Bad Request"), nil, 0
	}
	if resp, ok := f.control(req); ok {
		return resp, nil, 0
	}
	t, ok := f.reg.Classify(req)
	if !ok {
		if resp, ok := f.reg.Static(req.Path); ok {
			f.images.Add(1)
			return resp, nil, 0
		}
		f.notFound.Add(1)
		return errorResponse(404, "Not Found"), nil, 0
	}
	id := f.arm(a, t, start)
	var slot cacheSlot
	if f.cache != nil && f.reg.Spec(t).Cacheable {
		if resp, hit := f.cacheLookup(req, t, &slot); hit {
			f.latHist[t].ObserveEx(float64(time.Since(start)), id)
			return resp, nil, id
		}
	}
	resp, spans := f.ex.execute(a, t, slot)
	return resp, spans, id
}

// control routes the versioned control plane; ok is false for every
// other path.
func (f *frontend) control(req *httpx.Request) (resp []byte, ok bool) {
	switch req.Path {
	case StatsPathV1:
		return jsonResponse(f.ex.statsDoc()), true
	case MetricsPathV1:
		return f.metricsResponse(), true
	case TracePathV1:
		return f.traceResponse(req), true
	case FlightPathV1:
		return flightResponse(req, f.flight), true
	case HealthPathV1:
		return healthResponse(f.hEngine, f.flight), true
	case TopologyPathV1:
		if doc := f.ex.topology(); doc != nil {
			return jsonResponse(doc), true
		}
	}
	return nil, false
}

// arm starts a classified request's flight record in the arena and
// returns its trace ID.
func (f *frontend) arm(a *connArena, t service.TypeID, start time.Time) uint64 {
	id := f.flight.NextID()
	a.frec.Reset()
	a.frec.TraceID = id
	a.frec.Type = f.names[t]
	a.frec.Start = start
	return id
}

// commit closes out a request after its response was written (wstart
// is when the write began): traced requests get their write span and
// enter the trace ring, and an armed flight record is finished.
func (f *frontend) commit(a *connArena, spans []obs.Span, id uint64, wstart time.Time) {
	if spans != nil {
		spans = append(spans, obs.Span{Name: "write", Start: wstart, Dur: time.Since(wstart)})
		f.tracer.Add(obs.RequestTrace{Type: a.frec.Type, Spans: spans})
	}
	if id != 0 {
		a.frec.Spans = spans
		a.frec.Latency = time.Since(a.frec.Start)
		f.flight.Finish(&a.frec)
	}
}

// cacheSlot is a render-cache miss's insertion key: the resolved session
// and user, and the user's state version captured before execution.
type cacheSlot struct {
	ok       bool
	sid      session.ID
	uid, ver uint64
}

// cacheLookup resolves req's session and returns the cached page on a
// hit. On a miss it fills slot. The state version is captured BEFORE
// the executor runs, so a concurrent write can only make the later
// insert unreachable, never stale (DESIGN.md §14).
func (f *frontend) cacheLookup(req *httpx.Request, t service.TypeID, slot *cacheSlot) ([]byte, bool) {
	sid, ok := session.ParseID(req.Cookie(f.reg.WorkloadOf(t).SessionCookie()))
	if !ok {
		return nil, false
	}
	// Session arrays are bucket-locked, so the lookup is race-safe.
	arr := f.ex.sessionsFor(req, t)
	if arr == nil {
		return nil, false
	}
	uid, ok := arr.Lookup(sid)
	if !ok {
		return nil, false
	}
	*slot = cacheSlot{ok: true, sid: sid, uid: uid, ver: f.cache.Version(uid)}
	return f.cache.Get(t, sid, uid, slot.ver, req)
}

// cachePut inserts a freshly rendered page under a miss's slot.
func (f *frontend) cachePut(t service.TypeID, slot cacheSlot, req *httpx.Request, resp []byte) {
	if slot.ok {
		f.cache.Put(t, slot.sid, slot.uid, slot.ver, req, resp)
	}
}

// metricsResponse renders the Prometheus /v1/metrics document: the
// shared families around the executor's own.
func (f *frontend) metricsResponse() []byte {
	w := obs.NewPromWriter()
	w.Family("rhythm_build_info", "gauge", "Serving mode of this rhythmd process.")
	w.Value("rhythm_build_info", obs.Label("mode", f.mode), 1)
	w.Family("rhythm_requests_served_total", "counter", "Responses produced, including errors and sheds.")
	w.Value("rhythm_requests_served_total", "", float64(f.served.Load()))
	f.ex.writeMetrics(w)
	writeLatencyFamilies(w, f.labels, f.latHist)
	if f.cache != nil {
		writeRenderCacheFamilies(w, f.cache.Stats())
	}
	w.Family("rhythm_traces_recorded_total", "counter", "Request traces captured by the lifecycle recorder.")
	w.Value("rhythm_traces_recorded_total", "", float64(f.tracer.Total()))
	writeFlightFamilies(w, f.flight)
	return bodyResponse(promContentType, w.Bytes())
}

// traceResponse renders the Chrome trace-event document for /v1/trace,
// optionally blocking for a ?secs=N capture window.
func (f *frontend) traceResponse(req *httpx.Request) []byte {
	secs, ok := captureSecs(req)
	if !ok {
		return errorResponse(400, "Bad Request")
	}
	if secs == 0 {
		return bodyResponse("application/json", obs.ChromeTrace(f.tracer.Snapshot(), f.ex.launchesSince(nil)))
	}
	// One blocking capture at a time: each holds its connection's handler
	// goroutine for secs seconds, so unbounded concurrent captures would
	// pile up goroutines (DESIGN.md §15).
	if !f.captureBusy.CompareAndSwap(false, true) {
		return tooManyCapturesResponse()
	}
	defer f.captureBusy.Store(false)
	since := time.Now()
	floors := f.ex.launchFloors()
	time.Sleep(time.Duration(secs) * time.Second)
	return bodyResponse("application/json", obs.ChromeTrace(f.tracer.Since(since), f.ex.launchesSince(floors)))
}

func errorResponse(code int, reason string) []byte {
	buf := make([]byte, 512)
	w := httpx.NewResponseWriter(buf)
	w.StartError(code, reason)
	return w.Finish()
}

// maxHeaderBytes caps a request's header block (request line plus
// header lines). Past it the frontend answers 431 and closes the
// connection.
const maxHeaderBytes = 64 << 10

var errHeaderTooLarge = errors.New("rhythm: request header block exceeds maxHeaderBytes")

// readRequestInto reads one HTTP/1.1 request (headers + Content-Length
// body) from r, appending into buf and returning the extended slice.
// Once a connection's buffer has grown to its working size, reading a
// request performs no allocation (lines are consumed via ReadSlice and
// the Content-Length value is scanned in place). A header block longer
// than maxHeaderBytes fails with errHeaderTooLarge, having buffered at
// most one reader fragment past the cap.
func readRequestInto(r *bufio.Reader, buf []byte) ([]byte, error) {
	headerStart := len(buf)
	contentLength := 0
	for {
		lineStart := len(buf)
		for {
			frag, err := r.ReadSlice('\n')
			buf = append(buf, frag...)
			if len(buf)-headerStart > maxHeaderBytes {
				return buf, errHeaderTooLarge
			}
			if err == nil {
				break
			}
			if err == bufio.ErrBufferFull {
				continue // header line longer than the reader buffer
			}
			return buf, err
		}
		line := buf[lineStart:]
		for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			break
		}
		if n, ok := contentLengthValue(line); ok {
			if n < 0 || n > 1<<20 {
				return buf, fmt.Errorf("rhythm: bad content length %q", line)
			}
			contentLength = n
		}
	}
	if contentLength > 0 {
		bodyStart := len(buf)
		if cap(buf)-bodyStart < contentLength {
			grown := make([]byte, bodyStart, bodyStart+contentLength)
			copy(grown, buf)
			buf = grown
		}
		n, err := io.ReadFull(r, buf[bodyStart:bodyStart+contentLength])
		buf = buf[:bodyStart+n]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// contentLengthValue matches a Content-Length header line
// case-insensitively and parses its decimal value in place, reporting
// (-1, true) for a malformed value.
func contentLengthValue(line []byte) (int, bool) {
	const name = "content-length:"
	if len(line) < len(name) {
		return 0, false
	}
	for i := 0; i < len(name); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return 0, false
		}
	}
	v := line[len(name):]
	for len(v) > 0 && (v[0] == ' ' || v[0] == '\t') {
		v = v[1:]
	}
	for len(v) > 0 && (v[len(v)-1] == ' ' || v[len(v)-1] == '\t') {
		v = v[:len(v)-1]
	}
	if len(v) == 0 {
		return -1, true
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' || n > (1<<30) {
			return -1, true
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
