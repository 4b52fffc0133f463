package service

import (
	"bytes"
	"fmt"

	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// This file implements page workloads as SIMT kernels: the per-type
// process stages operating on cohort buffers in device memory. The
// stage logic is the same Go code the host path runs; what differs is
// the memory traffic — word-interleaved column-major cohort buffers
// accessed in lockstep — and the cost accounting the simulator performs
// on it. Function and timing are split: each column-major buffer's
// accesses are charged at their column-major addresses
// (simt.Thread.AccessStrided), while its bytes live contiguously per
// request in a row-major home buffer, so no transpose ever moves bytes.

// Device-side cost constants: an on-device backend lookup (Titan B/C run
// the backend as a device kernel, §5.3.2) and session-array work beyond
// the atomics.
const (
	besimDeviceOps = 8000
	sessionOps     = 64
)

// wordSize is the interleaving granularity of column-major cohort
// buffers: threads store 4-byte words so a warp's lanes cover a full
// 128-byte transaction.
const wordSize = 4

// KernelMode selects the §4.3.2/§5.3.2 variant the stage kernels run.
// The registry's device path is the all-true Titan B mode; the paper
// pipeline maps its Padding/ColumnMajor/DeviceBackend options onto it
// for the Titan A and ablation runs.
type KernelMode struct {
	// Padding enables §4.3.2 whitespace alignment.
	Padding bool
	// ColumnMajor stores responses word-interleaved for the response
	// transpose; otherwise each thread writes its own row-major slot
	// (the transpose ablation).
	ColumnMajor bool
	// DeviceBackend chains the backend into the stage kernel; otherwise
	// the stage stores its backend request for a host round trip that
	// copies the BReqRow/BRespRow rows over the bus (Titan A).
	DeviceBackend bool
}

// DeviceMode is the registry's device path: padded, column-major, with
// the backend on the device.
var DeviceMode = KernelMode{Padding: true, ColumnMajor: true, DeviceBackend: true}

// Cohort is the device-resident geometry of one typed page cohort plus
// its host mirror. Size is the slot capacity; Count the live requests.
// A cohort is allocated per buffer class and rebound across the types
// of that class, so an execution slot holds at most one buffer set per
// class.
type Cohort struct {
	Def   *SvcDef
	Size  int
	Count int
	mode  KernelMode

	// Device buffers. BReqBuf/BRespBuf are the column-major backend
	// request and response slots and RespCol the column-major response:
	// the stage kernels' accesses are charged at their addresses, but
	// their bytes are never written. The bytes live row-major in their
	// homes BReqRow, BRespRow and RespRow, which are therefore always
	// exactly what a transpose would have produced. In row-major mode
	// the response is charged at RespRow itself. A host backend
	// exchanges BReqRow/BRespRow over the bus after charging the
	// transposes a device backend avoids — "A local device backend also
	// avoids the need to transpose the backend request and response
	// data" (§5.3.2).
	BReqBuf  mem.Addr
	BRespBuf mem.Addr
	RespCol  mem.Addr
	RespRow  mem.Addr
	BReqRow  mem.Addr
	BRespRow mem.Addr

	// Host mirrors.
	Reqs []httpx.Request
	Ctxs []*Ctx

	w     *PageWorkload
	class int
	// stageInstr tracks each request's charged instructions at the last
	// stage boundary, so stage kernels charge only their delta.
	stageInstr []int64
}

// NewCohort allocates the device buffers of a cohort of size slots for
// response-buffer class bufBytes, running in mode.
func (w *PageWorkload) NewCohort(dev *simt.Device, bufBytes, size int, mode KernelMode) *Cohort {
	return &Cohort{
		Size:       size,
		mode:       mode,
		w:          w,
		class:      bufBytes,
		BReqBuf:    dev.Mem.Alloc(size*BackendRequestSlot, 256),
		BRespBuf:   dev.Mem.Alloc(size*BackendResponseSlot, 256),
		RespCol:    dev.Mem.Alloc(size*bufBytes, 256),
		RespRow:    dev.Mem.Alloc(size*bufBytes, 256),
		BReqRow:    dev.Mem.Alloc(size*BackendRequestSlot, 256),
		BRespRow:   dev.Mem.Alloc(size*BackendResponseSlot, 256),
		Reqs:       make([]httpx.Request, size),
		Ctxs:       make([]*Ctx, size),
		stageInstr: make([]int64, size),
	}
}

// Reset binds the cohort to local type `local` for a new batch of count
// requests. The type's buffer must match the cohort's class exactly
// (cohort geometry is derived from it).
func (c *Cohort) Reset(local, count int) {
	def := &c.w.defs[local]
	if def.BufferBytes != c.class {
		panic(fmt.Sprintf("service: cannot bind %s (%d B) to a %d B class cohort", def.Name, def.BufferBytes, c.class))
	}
	if count <= 0 || count > c.Size {
		panic(fmt.Sprintf("service: cohort count %d out of range (size %d)", count, c.Size))
	}
	c.Def = def
	c.Count = count
	for i := 0; i < count; i++ {
		c.Reqs[i] = httpx.Request{}
		c.Ctxs[i] = nil
		c.stageInstr[i] = 0
	}
}

// Response returns a copy of request r's rendered response from the
// row-major response buffer (valid after the final stage; the response
// transpose only charges time).
func (c *Cohort) Response(m *mem.Memory, r int) []byte {
	if r < 0 || r >= c.Count {
		panic(fmt.Sprintf("service: response row %d out of range (count %d)", r, c.Count))
	}
	return m.Read(c.RespRow+mem.Addr(r*c.class), c.class)
}

// Stage returns process-stage kernel k of the bound type. be is the
// group's backend store, used only in DeviceBackend mode.
func (c *Cohort) Stage(k int, sessions *session.Array, be Backend) simt.Program {
	if k < 0 || k > c.Def.Backends {
		panic(fmt.Sprintf("service: stage %d out of range for %s", k, c.Def.Name))
	}
	return stageProgram{c: c, stage: k, sessions: sessions, be: be}
}

// pageSlot is one execution slot's cohort state for one page workload.
type pageSlot struct {
	w       *PageWorkload
	dev     *simt.Device
	size    int
	byClass map[int]*Cohort
}

// Bind implements Slot.
func (s *pageSlot) Bind(local int, reqs []httpx.Request, sessions *session.Array, be Backend) Unit {
	class := s.w.defs[local].BufferBytes
	c, ok := s.byClass[class]
	if !ok {
		c = s.w.NewCohort(s.dev, class, s.size, DeviceMode)
		s.byClass[class] = c
	}
	c.Reset(local, len(reqs))
	copy(c.Reqs, reqs)
	return &pageUnit{c: c, dev: s.dev, sessions: sessions, be: be}
}

// pageUnit is a bound cohort of one page-workload type.
type pageUnit struct {
	c        *Cohort
	dev      *simt.Device
	sessions *session.Array
	be       Backend
}

// Stages implements Unit.
func (u *pageUnit) Stages() int { return u.c.Def.Backends + 1 }

// Stage implements Unit.
func (u *pageUnit) Stage(k int) simt.Program { return u.c.Stage(k, u.sessions, u.be) }

// Writeback implements Unit: charge the transpose of the column-major
// responses to row-major for extraction.
func (u *pageUnit) Writeback(stream *simt.Stream) {
	c := u.c
	stream.Transpose(c.class/wordSize, c.Size, wordSize, nil)
}

// Response implements Unit.
func (u *pageUnit) Response(i int) []byte { return u.c.Response(u.dev.Mem, i) }

// Failed implements Unit.
func (u *pageUnit) Failed(i int) bool {
	ctx := u.c.Ctxs[i]
	return ctx != nil && ctx.Err != ""
}

// columnBase returns the base address of request r's column in a
// word-interleaved buffer starting at buf.
func columnBase(buf mem.Addr, r int) mem.Addr { return buf + mem.Addr(wordSize*r) }

// rowSlot returns request r's slot of a row-major buffer of slotBytes
// slots starting at buf. It aliases device memory, so it must not be
// kept past the block that asked for it.
func rowSlot(m *mem.Memory, buf mem.Addr, r, slotBytes int) []byte {
	return m.Bytes(buf+mem.Addr(r*slotBytes), slotBytes)
}

// loadColumn charges the read of request r's whole column of a cohort
// buffer `col` of `rows` slots and returns a copy of its bytes from
// their row-major home `row` (slot size n, a wordSize multiple). The
// copy outlives the block, unlike device memory the next stage reuses.
func loadColumn(t *simt.Thread, col, row mem.Addr, r, rows, n int) []byte {
	t.AccessStrided(columnBase(col, r), n/wordSize, wordSize, wordSize*rows)
	return bytes.Clone(rowSlot(t.Mem(), row, r, n))
}

// storeSlot charges the store of one whole slot (n bytes, a wordSize
// multiple) into request r's column of col and writes data, zero
// filled to the slot size, to its row-major home.
func storeSlot(t *simt.Thread, col, row mem.Addr, r, rows, n int, data []byte) {
	t.AccessStrided(columnBase(col, r), n/wordSize, wordSize, wordSize*rows)
	slot := rowSlot(t.Mem(), row, r, n)
	clear(slot[copy(slot, data):])
}

// chargeColumn charges a store of n bytes into request r's column
// starting at byte offset start, as the word accesses a CUDA thread
// would issue: a partial leading word, aligned middle words, and a
// partial trailing word. When every lane's start matches (the padded,
// aligned case) the stores coalesce; when starts diverge they scatter.
func chargeColumn(t *simt.Thread, buf mem.Addr, r, rows, start, n int) {
	stride := wordSize * rows
	at := func(pos int) mem.Addr {
		return buf + mem.Addr((pos/wordSize)*stride+wordSize*r+pos%wordSize)
	}
	pos, end := start, start+n
	if h := pos % wordSize; h != 0 && pos < end {
		k := min(wordSize-h, end-pos)
		t.AccessStrided(at(pos), 1, k, k)
		pos += k
	}
	if words := (end - pos) / wordSize; words > 0 {
		t.AccessStrided(at(pos), words, wordSize, stride)
		pos += words * wordSize
	}
	if pos < end {
		t.AccessStrided(at(pos), 1, end-pos, end-pos)
	}
}

// chargeRow charges a store of n bytes at byte offset start of request
// r's row-major slot (slot size rowBytes), as the per-word loop a thread
// would execute — the uncoalesced layout the transpose ablation
// measures.
func chargeRow(t *simt.Thread, buf mem.Addr, r, rowBytes, start, n int) {
	addr := buf + mem.Addr(r*rowBytes+start)
	words := n / wordSize
	t.AccessStrided(addr, words, wordSize, wordSize)
	if tail := n - words*wordSize; tail > 0 {
		t.AccessStrided(addr+mem.Addr(words*wordSize), 1, tail, tail)
	}
}

// stageProgram runs process stage `stage` for every live request of the
// cohort. Blocks: 0 = session/context prologue; 1 = stage body (backend
// request generation or page generation); 2 = on-device backend
// (DeviceBackend mode only); 3 = response emission; 90 = error path.
// Error requests diverge from the cohort exactly as §4.4 describes.
type stageProgram struct {
	c        *Cohort
	stage    int
	sessions *session.Array
	be       Backend
}

func (p stageProgram) Name() string {
	return fmt.Sprintf("rhythm_%s_%s_s%d", p.c.w.name, p.c.Def.Name, p.stage)
}

func (stageProgram) Entry() simt.BlockID { return 0 }

// LaunchFootprint declares the one piece of shared host state a stage
// kernel touches while executing: the group's session array, per the
// type's SessionMode. Cohort contexts, device columns and response
// buffers are private to the launch's own cohort, and all backend-store
// access happens inside Thread.Defer (replayed serially at
// end-of-launch), so it needs no declaration (simt.Footprinter;
// DESIGN.md §13). Types that create or end sessions conservatively
// declare a write at every stage — the mutating stage is workload code
// the kit cannot see into; the others read at the stage-0 lookup.
func (p stageProgram) LaunchFootprint() simt.Footprint {
	def := p.c.Def
	switch {
	case def.Session == SessionCreates || def.Session == SessionEnds:
		return simt.Footprint{Writes: []any{p.sessions}}
	case p.stage == 0 && def.resolvesSession():
		return simt.Footprint{Reads: []any{p.sessions}}
	}
	return simt.Footprint{}
}

func (p stageProgram) Exec(b simt.BlockID, t *simt.Thread) simt.BlockID {
	c := p.c
	def := c.Def
	r := t.ID
	switch b {
	case 0: // prologue: context / session resolution
		if p.stage == 0 {
			t.Atomic(c.BReqBuf)
			t.Compute(sessionOps)
			ctx := &Ctx{Page: &PageBuilder{}}
			c.w.initCtx(ctx, def, &c.Reqs[r], p.sessions, c.mode.Padding)
			c.Ctxs[r] = ctx
		} else if c.Ctxs[r].Done {
			// A variable-stage request already finished and emitted; its
			// lane drops out of the rest of the cohort's kernels.
			return simt.Halt
		}
		if c.Ctxs[r].Err != "" {
			return 90
		}
		return 1
	case 1: // stage body
		ctx := c.Ctxs[r]
		var bresp []byte
		if p.stage > 0 {
			bresp = loadColumn(t, c.BRespBuf, c.BRespRow, r, c.Size, BackendResponseSlot)
		}
		breq := def.Stage(ctx, p.stage, bresp)
		p.chargeDelta(t, r)
		if ctx.Err != "" {
			return 90
		}
		if ctx.Done {
			return 3 // early completion: emit now (variable stages)
		}
		if p.stage < def.Backends {
			storeSlot(t, c.BReqBuf, c.BReqRow, r, c.Size, BackendRequestSlot, breq)
			if c.mode.DeviceBackend {
				return 2
			}
			return simt.Halt // host backend round trip follows
		}
		return 3
	case 2: // on-device backend: price now, commit deferred
		breq := loadColumn(t, c.BReqBuf, c.BReqRow, r, c.Size, BackendRequestSlot)
		t.Compute(besimDeviceOps)
		// The store's cost is content-independent (always the full
		// slot), so price it now and defer the execution: the backend
		// mutates shared state and must commit in canonical serial
		// order for the rendered bytes to match a serial run's. The
		// response is only read by the NEXT stage kernel, so
		// materializing it at end-of-launch is unobservable. See
		// DESIGN.md "Host parallelism".
		t.AccessStrided(columnBase(c.BRespBuf, r), BackendResponseSlot/wordSize, wordSize, wordSize*c.Size)
		m, be := t.Mem(), p.be
		t.Defer(func() {
			slot := rowSlot(m, c.BRespRow, r, BackendResponseSlot)
			clear(slot[copy(slot, be.Handle(breq)):])
		})
		return simt.Halt // next stage kernel reads BRespBuf
	case 3: // final stage: render and emit
		p.emit(t, r, c.Ctxs[r])
		return simt.Halt
	case 90: // error path (§4.4): divergent, full-size error page
		if p.stage < def.Backends {
			// Skip the remaining backend stages; emission happens when
			// the final stage kernel runs.
			return simt.Halt
		}
		ctx := c.Ctxs[r]
		buildErrorPage(ctx)
		p.chargeDelta(t, r)
		p.emit(t, r, ctx)
		return simt.Halt
	}
	panic("service: bad stage block")
}

// chargeDelta charges the instructions the stage body accrued since the
// previous boundary.
func (p stageProgram) chargeDelta(t *simt.Thread, r int) {
	c := p.c
	now := c.Ctxs[r].Instr()
	if d := now - c.stageInstr[r]; d > 0 {
		t.Compute(int(d))
		c.stageInstr[r] = now
	}
}

// emit renders the full fixed-size response straight into request r's
// row-major home and charges its store section by section, splitting
// at the page's alignment marks. With padding on and budgeted sections
// every lane's marks coincide and the column-major stores coalesce;
// with padding off they drift and scatter (§4.3.2).
func (p stageProgram) emit(t *simt.Thread, r int, ctx *Ctx) {
	c := p.c
	resp := c.w.Render(ctx, rowSlot(t.Mem(), c.RespRow, r, c.class))
	lo := 0
	for _, m := range ctx.Page.Marks() {
		hi := c.Def.headerLen + m
		p.chargeSection(t, r, lo, hi)
		lo = hi
	}
	p.chargeSection(t, r, lo, len(resp))
}

// chargeSection charges the store of bytes [lo, hi) of request r's
// response.
func (p stageProgram) chargeSection(t *simt.Thread, r, lo, hi int) {
	if hi <= lo {
		return
	}
	c := p.c
	if c.mode.ColumnMajor {
		chargeColumn(t, c.RespCol, r, c.Size, lo, hi-lo)
	} else {
		chargeRow(t, c.RespRow, r, c.class, lo, hi-lo)
	}
}
