package service

import (
	"fmt"

	"rhythm/internal/httpx"
	"rhythm/internal/session"
)

// SessionMode declares a request type's session semantics — what the
// kernel prologue does with the workload's session cookie, and what the
// stage-kernel footprint must declare about the shard group's session
// array.
type SessionMode int

const (
	// SessionNone: the type never touches the session array.
	SessionNone SessionMode = iota
	// SessionOptional: a valid cookie resolves the session (and makes
	// the request cacheable/affine); a missing one is not an error.
	SessionOptional
	// SessionRequired: a missing or expired session fails the request
	// before any backend work (the divergent error path).
	SessionRequired
	// SessionCreates: the type creates a session during its stages
	// (login-shaped); any existing cookie is ignored.
	SessionCreates
	// SessionEnds: SessionRequired for a type whose stages delete the
	// resolved session (logout-shaped).
	SessionEnds
)

// StageFunc is one request type's process logic, shared verbatim by the
// host path and the device kernels: stage i (0 ≤ i < Backends) returns
// the backend request to issue; the final stage returns nil after
// building ctx.Page. bresp is the previous round trip's backend
// response (nil at stage 0).
type StageFunc func(ctx *Ctx, stage int, bresp []byte) []byte

// SvcDef declares one request type of a page-shaped workload.
type SvcDef struct {
	Name string
	Path string
	Post bool
	// MixPercent is the type's share of the workload mix.
	MixPercent float64
	// Backends is the backend round-trip count.
	Backends int
	// BufferBytes is the fixed response buffer (a power of two).
	BufferBytes int
	// ContentType of the response ("" = text/html).
	ContentType string
	// Session is the type's session semantics.
	Session SessionMode
	// Cacheable marks the type render-cache eligible (requires a
	// session-resolving mode so cache keys carry a user identity).
	Cacheable bool
	// VariableStages marks types that may finish early (ctx.Done).
	VariableStages bool
	// Stage is the process logic.
	Stage StageFunc

	// Computed at registration.
	local     int
	headerLen int
}

// Local reports the type's index within its workload.
func (def *SvcDef) Local() int { return def.local }

// resolvesSession reports whether the prologue resolves the cookie.
func (def *SvcDef) resolvesSession() bool {
	return def.Session == SessionOptional || def.Session == SessionRequired || def.Session == SessionEnds
}

// BlockBase gives each local type a disjoint basic-block id space for
// the Fig 2 trace study: the prologue records BlockBase, the error page
// BlockBase+999, and stage functions number their blocks in between.
func BlockBase(local int) uint32 { return uint32(local+1) * 1000 }

// Ctx carries one request through its process stages. It is shared by
// the host path and the SIMT kernels: both run the same stage functions,
// so the bytes produced — and the structural instruction counts charged
// — are identical by construction.
type Ctx struct {
	Req      *httpx.Request
	Sessions *session.Array
	Def      *SvcDef
	Page     *PageBuilder

	// SID/UserID are resolved from the workload's session cookie (or
	// created by a SessionCreates stage). HasSession reports a live
	// resolved session (SessionOptional types run without one).
	SID        session.ID
	UserID     uint64
	HasSession bool
	// NewCookie, when non-empty, is the Set-Cookie value the response
	// carries (only meaningful for workloads with a session cookie).
	NewCookie string
	// Err, when non-empty, marks the request failed; the response is a
	// full-size error page on the cohort's divergent path (§4.4).
	Err string
	// Done marks early completion of a variable-stage type: the page is
	// built and the remaining backend stages are skipped, so its thread
	// drops out of the cohort's later kernels.
	Done bool
	// Data carries service-private state between stages.
	Data any

	w     *PageWorkload
	instr int64
}

// Charge adds n instructions of non-page work.
func (c *Ctx) Charge(n int64) { c.instr += n }

// Instr reports total instructions charged: fixed + stages + page.
func (c *Ctx) Instr() int64 { return c.instr + c.Page.Instr() }

// Fail marks the request failed.
func (c *Ctx) Fail(reason string) { c.Err = reason }

// CreateSession creates a session for uid and arms the response cookie.
// For SessionCreates stages only; failure (full table) fails the
// request.
func (c *Ctx) CreateSession(uid uint64) bool {
	sid, ok := c.Sessions.Create(uid)
	if !ok {
		c.Fail("server busy: session table full")
		return false
	}
	c.SID = sid
	c.UserID = uid
	c.HasSession = true
	c.NewCookie = c.w.cookieName + "=" + sid.String()
	return true
}

// initCtx prepares a context (fresh or recycled, Page attached and
// reset): fixed-cost charge, the type's prologue block, and
// session-cookie resolution per the type's SessionMode.
func (w *PageWorkload) initCtx(ctx *Ctx, def *SvcDef, req *httpx.Request, sessions *session.Array, padding bool) {
	page := ctx.Page
	*ctx = Ctx{Req: req, Sessions: sessions, Def: def, Page: page, w: w}
	page.costs = w.costs
	page.SetPadding(padding)
	ctx.Charge(w.costs.Fixed)
	page.Block(BlockBase(def.local))
	if !def.resolvesSession() {
		return
	}
	required := def.Session != SessionOptional
	cookie := req.Cookie(w.cookieName)
	sid, ok := session.ParseID(cookie)
	if !ok {
		if required {
			ctx.Fail("missing or malformed session cookie")
		}
		return
	}
	uid, ok := sessions.Lookup(sid)
	if !ok {
		if required {
			ctx.Fail("session expired")
		}
		return
	}
	ctx.SID = sid
	ctx.UserID = uid
	ctx.HasSession = true
	ctx.NewCookie = w.cookieName + "=" + sid.String()
}

// runStages drives the stage functions on the host path against be; on
// error it builds the error page.
func runStages(def *SvcDef, ctx *Ctx, be Backend) {
	var bresp []byte
	for i := 0; i <= def.Backends; i++ {
		if ctx.Err != "" || ctx.Done {
			break
		}
		breq := def.Stage(ctx, i, bresp)
		if i < def.Backends {
			if ctx.Err != "" || ctx.Done {
				break
			}
			if breq == nil {
				panic(fmt.Sprintf("service: %s stage %d produced no backend request", def.Name, i))
			}
			if len(breq) > BackendRequestSlot {
				panic(fmt.Sprintf("service: %s stage %d backend request exceeds slot", def.Name, i))
			}
			ctx.Charge(ctx.w.costs.Backend)
			bresp = be.Handle(breq)
		}
	}
	if ctx.Err != "" {
		buildErrorPage(ctx)
	}
}

// buildErrorPage renders the divergent error path: a short message in a
// full-size buffer so cohort geometry is undisturbed (§4.4). The body is
// the workload's ErrorPage hook, or a generic page naming the workload.
func buildErrorPage(ctx *Ctx) {
	p := ctx.Page
	p.Reset() // discard partial content, keep capacity
	p.Block(BlockBase(ctx.Def.local) + 999)
	if ctx.w.errorPage != nil {
		ctx.w.errorPage(ctx)
		return
	}
	p.Static("<html><head><title>")
	p.Static(ctx.w.name)
	p.Static(" - Error</title></head><body>\n<h1>Request failed</h1>\n<p class=\"error\">")
	p.Dynamic(ctx.Err)
	p.Static("</p>\n</body></html>\n")
}

// Scratch is a reusable host execution context: one per connection (or
// per worker) runs every request through the same Ctx and PageBuilder,
// resetting rather than reallocating between requests.
type Scratch struct {
	ctx  Ctx
	page PageBuilder
}

// NewScratch returns an empty reusable execution context.
func NewScratch() *Scratch { return &Scratch{} }

// Execute runs one request exactly like PageWorkload.Execute but reuses
// the scratch context and page builder. The returned ctx is valid until
// the next Execute on the same Scratch.
func (sc *Scratch) Execute(w *PageWorkload, local int, req *httpx.Request, sessions *session.Array, be Backend, padding bool) *Ctx {
	sc.page.Reset()
	sc.ctx.Page = &sc.page
	def := &w.defs[local]
	w.initCtx(&sc.ctx, def, req, sessions, padding)
	runStages(def, &sc.ctx, be)
	return &sc.ctx
}
