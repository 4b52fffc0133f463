package banking

import (
	"strconv"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// Workload is the Banking workload: a service.PageWorkload over the
// Table 2 specs and the stage functions in services.go. It runs on the
// registry's shared page-kernel library — host path, device stage
// kernels, fixed-geometry renderer — like every other page workload
// (DESIGN.md §16). Banking registers first in the default registry, so
// its workload-qualified type ids equal its ReqType values. The
// workload is immutable; every registry and harness shares it.
var Workload = newWorkload()

// cookieName is the Banking session cookie.
const cookieName = "MY_ID"

// stages holds the process logic, indexed by ReqType.
var stages = [NumTypes]service.StageFunc{
	Login:               loginStage,
	AccountSummary:      accountSummaryStage,
	AddPayee:            addPayeeStage,
	BillPay:             billPayStage,
	BillPayStatusOutput: billPayStatusStage,
	ChangeProfile:       changeProfileStage,
	CheckDetailHTML:     checkDetailStage,
	OrderCheck:          orderCheckStage,
	PlaceCheckOrder:     placeCheckOrderStage,
	PostPayee:           postPayeeStage,
	PostTransfer:        postTransferStage,
	Profile:             profileStage,
	Transfer:            transferStage,
	Logout:              logoutStage,
	QuickPay:            quickPayStage,
}

// cacheableTypes is the render-cache whitelist: read-only page types
// whose bytes depend only on (type, session, user state version,
// request arguments) — the registry Spec's Cacheable bit (DESIGN.md
// §14).
var cacheableTypes = map[ReqType]bool{
	AccountSummary:      true,
	AddPayee:            true,
	BillPay:             true,
	BillPayStatusOutput: true,
	ChangeProfile:       true,
	CheckDetailHTML:     true,
	OrderCheck:          true,
	Profile:             true,
	Transfer:            true,
}

// Cacheable reports whether t is render-cache eligible.
func Cacheable(t ReqType) bool { return cacheableTypes[t] }

func newWorkload() *service.PageWorkload {
	defs := make([]service.SvcDef, NumTypes)
	for i, s := range Specs {
		mode := service.SessionRequired
		switch s.Type {
		case Login:
			mode = service.SessionCreates
		case Logout:
			mode = service.SessionEnds
		}
		defs[i] = service.SvcDef{
			Name:           s.Name,
			Path:           s.Path,
			Post:           s.Post,
			MixPercent:     s.MixPercent,
			Backends:       s.Backends,
			BufferBytes:    s.BufferBytes(),
			Session:        mode,
			Cacheable:      cacheableTypes[s.Type],
			VariableStages: s.VariableStages,
			Stage:          stages[i],
		}
	}
	return service.NewPageWorkload(service.PageWorkloadConfig{
		Name:       "banking",
		CookieName: cookieName,
		Costs: service.Costs{
			Fixed:      InstrFixed,
			StaticByte: InstrPerStaticByte,
			DynByte:    InstrPerDynamicByte,
			Backend:    InstrPerBackend,
		},
		Defs:       defs,
		NewBackend: func() service.Backend { return backend.New() },
		Affinity:   affinity,
		Static:     ImageResponse,
		ErrorPage:  errorPage,
	})
}

// affinity pins logins to the bucket that will own the created session
// (hashing the posted userid the way session.Create will);
// cookie-bearing requests recover their bucket from the session id;
// everything else is stateless — its kernel fails before touching
// state, so any device renders the same error page.
func affinity(req *httpx.Request, local int, buckets int) int {
	if ReqType(local) == Login {
		uid, err := strconv.ParseUint(req.Param("userid"), 10, 64)
		if err != nil {
			return -1
		}
		return session.BucketFor(uid, buckets)
	}
	if id, ok := session.ParseID(req.Cookie(cookieName)); ok {
		return id.Bucket(buckets)
	}
	return -1
}

// errorPage is Banking's divergent error page (§4.4): the reason and a
// way back to the login form.
func errorPage(ctx *service.Ctx) {
	p := ctx.Page
	p.Static("<html><head><title>SPECweb Banking - Error</title></head><body>\n<h1>Request failed</h1>\n<p class=\"error\">")
	p.Dynamic(ctx.Err)
	p.Static("</p>\n<p><a href=\"/login.php\">Return to login</a></p>\n</body></html>\n")
}

// blockBase is type t's basic-block id space in the Fig 2 trace.
func blockBase(t ReqType) uint32 { return service.BlockBase(int(t)) }
