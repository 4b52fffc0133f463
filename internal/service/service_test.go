package service

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rhythm/internal/httpx"
	"rhythm/internal/mem"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// The kit workload exercises the page-kernel library without any real
// workload: a budgeted page whose dynamic section varies in length, a
// session-required page (the divergent error path when the cookie is
// missing), and a variable-stage page that retires after n of its
// three backend round trips.
const (
	kitPage = iota
	kitPrivate
	kitMulti
)

// echoBackend is a pure backend: its response depends only on the
// request, so host and device runs see identical inputs in any order.
type echoBackend struct{}

func (echoBackend) Handle(req []byte) []byte      { return append([]byte("OK "), req...) }
func (echoBackend) SetWriteHook(func(uid uint64)) {}

func kitStagePage(ctx *Ctx, stage int, bresp []byte) []byte {
	p := ctx.Page
	if stage == 0 {
		p.Block(BlockBase(ctx.Def.Local()) + 1)
		return []byte("ITEM " + ctx.Req.Param("id"))
	}
	p.Block(BlockBase(ctx.Def.Local()) + 2)
	p.Static("<html><body><h1>Item</h1>\n")
	mark := p.Len()
	p.Dynamic(strings.TrimRight(string(bresp), "\x00"))
	p.Dynamic(strings.Repeat("*", len(ctx.Req.Param("id"))*7))
	p.PadTo(mark + 96)
	p.Static("<p>footer</p>\n")
	p.FillTo(1024)
	p.Static("</body></html>\n")
	return nil
}

func kitStagePrivate(ctx *Ctx, stage int, _ []byte) []byte {
	ctx.Page.Static("<html><body>private " + strconv.FormatUint(ctx.UserID, 10) + "</body></html>\n")
	return nil
}

func kitStageMulti(ctx *Ctx, stage int, bresp []byte) []byte {
	p := ctx.Page
	n, _ := strconv.Atoi(ctx.Req.Param("n"))
	if stage > 0 {
		p.Dynamic(strings.TrimRight(string(bresp), "\x00") + "\n")
		p.PadTo(p.Len())
	}
	if stage == n || stage == ctx.Def.Backends {
		p.Static("done\n")
		ctx.Done = stage < ctx.Def.Backends
		return nil
	}
	return []byte("STEP " + strconv.Itoa(stage))
}

func newKit(errorPage func(*Ctx)) *PageWorkload {
	return NewPageWorkload(PageWorkloadConfig{
		Name:       "kit",
		CookieName: "KIT_ID",
		Defs: []SvcDef{
			{Name: "page", Path: "/page", MixPercent: 60, Backends: 1, BufferBytes: 2048, Stage: kitStagePage},
			{Name: "private", Path: "/private", MixPercent: 30, BufferBytes: 1024,
				Session: SessionRequired, Stage: kitStagePrivate},
			{Name: "multi", Path: "/multi", MixPercent: 10, Backends: 3, BufferBytes: 1024,
				ContentType: "text/plain", VariableStages: true, Stage: kitStageMulti},
		},
		NewBackend: func() Backend { return echoBackend{} },
		ErrorPage:  errorPage,
	})
}

func kitRequest(t *testing.T, uri string) httpx.Request {
	t.Helper()
	req, err := httpx.Parse([]byte("GET " + uri + " HTTP/1.1\r\nHost: k\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// kitRequests returns n requests of local type local with varying data.
func kitRequests(t *testing.T, local, n int) []httpx.Request {
	t.Helper()
	out := make([]httpx.Request, n)
	for i := range out {
		switch local {
		case kitPage:
			out[i] = kitRequest(t, fmt.Sprintf("/page?id=%d", 1+i*i*37))
		case kitPrivate:
			out[i] = kitRequest(t, "/private")
		case kitMulti:
			out[i] = kitRequest(t, fmt.Sprintf("/multi?n=%d", 1+i%3))
		}
	}
	return out
}

func TestPaddingKeepsSectionMarksUniform(t *testing.T) {
	w := newKit(nil)
	sessions := session.NewArray(16, 4)
	var ref []int
	for i, req := range kitRequests(t, kitPage, 12) {
		ctx := w.Execute(kitPage, &req, sessions, echoBackend{}, true)
		if ctx.Err != "" {
			t.Fatal(ctx.Err)
		}
		if ctx.Page.Misaligned() != 0 {
			t.Fatalf("request %d: %d PadTo budgets overshot", i, ctx.Page.Misaligned())
		}
		if ref == nil {
			ref = append([]int(nil), ctx.Page.Marks()...)
			continue
		}
		if fmt.Sprint(ctx.Page.Marks()) != fmt.Sprint(ref) {
			t.Fatalf("request %d: marks %v, want %v", i, ctx.Page.Marks(), ref)
		}
	}
	if len(ref) != 1 || ref[0]%wordSize != 0 {
		t.Fatalf("marks %v: want one word-aligned mark", ref)
	}
}

func TestUnpaddedSectionMarksDiverge(t *testing.T) {
	w := newKit(nil)
	sessions := session.NewArray(16, 4)
	seen := map[string]bool{}
	for _, req := range kitRequests(t, kitPage, 12) {
		ctx := w.Execute(kitPage, &req, sessions, echoBackend{}, false)
		if ctx.Err != "" {
			t.Fatal(ctx.Err)
		}
		seen[fmt.Sprint(ctx.Page.Marks())] = true
	}
	if len(seen) < 2 {
		t.Fatal("unpadded section marks did not vary — padding ablation is vacuous")
	}
}

// TestPadToCountsOvershoot: a section budget the content has already
// passed is counted in Misaligned, pads nothing, and still records its
// mark (section boundaries are what the device stores along).
func TestPadToCountsOvershoot(t *testing.T) {
	p := &PageBuilder{padding: true, costs: DefaultCosts()}
	p.Static("0123456789")
	p.PadTo(4)
	if p.Misaligned() != 1 || p.Len() != 10 {
		t.Fatalf("overshoot: misaligned %d, len %d; want 1, 10", p.Misaligned(), p.Len())
	}
	p.PadTo(13) // rounds up to the next word
	if p.Misaligned() != 1 || p.Len() != 16 {
		t.Fatalf("pad: misaligned %d, len %d; want 1, 16", p.Misaligned(), p.Len())
	}
	if got := fmt.Sprint(p.Marks()); got != "[10 16]" {
		t.Fatalf("marks %s, want [10 16]", got)
	}
}

func TestBlocksRecorded(t *testing.T) {
	w := newKit(nil)
	sessions := session.NewArray(16, 4)
	req := kitRequest(t, "/page?id=7")
	ctx := w.Execute(kitPage, &req, sessions, echoBackend{}, true)
	blocks := ctx.Page.Blocks()
	base := BlockBase(kitPage)
	if len(blocks) < 4 || blocks[0] != base || blocks[1] != base+1 || blocks[2] != base+2 {
		t.Fatalf("trace %v: want prologue, stage 0 and stage 1 blocks first", blocks)
	}
	for _, b := range blocks[3:] {
		if b != emissionBlock|(base+2) {
			t.Fatalf("emission block %#x not labeled by its stage block", b)
		}
	}
	// The error path records its own block.
	priv := kitRequest(t, "/private")
	ctx = w.Execute(kitPrivate, &priv, sessions, echoBackend{}, true)
	if ctx.Err == "" || ctx.Page.Blocks()[0] != BlockBase(kitPrivate)+999 {
		t.Fatalf("error page trace %v (err %q): want block %d first", ctx.Page.Blocks(), ctx.Err, BlockBase(kitPrivate)+999)
	}
}

func TestHeaderLenMatchesRender(t *testing.T) {
	w := newKit(nil)
	sessions := session.NewArray(16, 4)
	for _, local := range []int{kitPage, kitPrivate, kitMulti} {
		req := kitRequests(t, local, 1)[0]
		resp := w.RenderAlloc(w.Execute(local, &req, sessions, echoBackend{}, true))
		if got := bytes.Index(resp, []byte("\r\n\r\n")) + 4; got != w.HeaderLen(local) {
			t.Errorf("%s: rendered header %d bytes, HeaderLen %d", w.Def(local).Name, got, w.HeaderLen(local))
		}
		if len(resp) != w.Def(local).BufferBytes {
			t.Errorf("%s: response %d bytes, want %d", w.Def(local).Name, len(resp), w.Def(local).BufferBytes)
		}
	}
}

func TestErrorPageHook(t *testing.T) {
	sessions := session.NewArray(16, 4)
	req := kitRequest(t, "/private")
	generic := newKit(nil)
	resp := generic.RenderAlloc(generic.Execute(kitPrivate, &req, sessions, echoBackend{}, true))
	if !bytes.Contains(resp, []byte("<title>kit - Error</title>")) {
		t.Fatalf("generic error page: %q", resp)
	}
	hooked := newKit(func(ctx *Ctx) { ctx.Page.Static("custom: " + ctx.Err) })
	resp = hooked.RenderAlloc(hooked.Execute(kitPrivate, &req, sessions, echoBackend{}, true))
	if !bytes.Contains(resp, []byte("custom: missing or malformed session cookie")) {
		t.Fatalf("hooked error page: %q", resp)
	}
}

func TestScratchMatchesExecute(t *testing.T) {
	w := newKit(nil)
	sessions := session.NewArray(16, 4)
	sc := NewScratch()
	out := make([]byte, 2048)
	for _, local := range []int{kitPage, kitPrivate, kitMulti} {
		for _, req := range kitRequests(t, local, 4) {
			want := w.RenderAlloc(w.Execute(local, &req, sessions, echoBackend{}, true))
			ctx := sc.Execute(w, local, &req, sessions, echoBackend{}, true)
			if got := w.Render(ctx, out[:ctx.Def.BufferBytes]); !bytes.Equal(got, want) {
				t.Fatalf("%s: scratch render differs from Execute", w.Def(local).Name)
			}
		}
	}
}

// kernelRun drives a cohort of local type `local` through every stage
// kernel in mode, performing the host round trip between stages when the
// mode has no device backend, and returns the cohort with its responses
// row-major in RespRow. The kernels keep every column-major buffer's
// bytes in its row-major home, so the round trip reads BReqRow and
// writes BRespRow directly, as the pipeline's bus copies do.
func kernelRun(t *testing.T, w *PageWorkload, local int, reqs []httpx.Request, mode KernelMode) (*Cohort, *simt.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev := simt.NewDevice(eng, simt.GTXTitan(), 16<<20, nil)
	sessions := session.NewArray(16, 4)
	n := len(reqs)
	def := w.Def(local)
	c := w.NewCohort(dev, def.BufferBytes, n, mode)
	c.Reset(local, n)
	copy(c.Reqs, reqs)
	stream := dev.NewStream()
	m := dev.Mem
	for k := 0; k <= def.Backends; k++ {
		stream.Launch(c.Stage(k, sessions, echoBackend{}), n, nil, nil)
		eng.Run()
		if k == def.Backends || mode.DeviceBackend {
			continue
		}
		// Host round trip (Titan A): execute the live lanes' request
		// slots and store their responses.
		for r := 0; r < n; r++ {
			slot := m.Bytes(c.BRespRow+mem.Addr(r*BackendResponseSlot), BackendResponseSlot)
			clear(slot)
			if ctx := c.Ctxs[r]; ctx.Done || ctx.Err != "" {
				continue
			}
			breq := bytes.TrimRight(m.Read(c.BReqRow+mem.Addr(r*BackendRequestSlot), BackendRequestSlot), "\x00")
			copy(slot, echoBackend{}.Handle(breq))
		}
	}
	return c, dev
}

// TestStageKernelsMatchHostExecute: the stage kernels' responses are
// byte-identical to host Execute in all three emission modes.
func TestStageKernelsMatchHostExecute(t *testing.T) {
	modes := []struct {
		name string
		mode KernelMode
	}{
		{"column-major padded", DeviceMode},
		{"column-major unpadded", KernelMode{ColumnMajor: true, DeviceBackend: true}},
		{"row-major host backend", KernelMode{Padding: true}},
	}
	w := newKit(nil)
	for _, md := range modes {
		for _, local := range []int{kitPage, kitPrivate, kitMulti} {
			reqs := kitRequests(t, local, 40)
			c, dev := kernelRun(t, w, local, reqs, md.mode)
			sessions := session.NewArray(16, 4)
			for r := range reqs {
				want := w.RenderAlloc(w.Execute(local, &reqs[r], sessions, echoBackend{}, md.mode.Padding))
				if got := c.Response(dev.Mem, r); !bytes.Equal(got, want) {
					t.Fatalf("%s, %s lane %d: kernel response differs from host Execute:\n%q\nvs\n%q",
						md.name, w.Def(local).Name, r, got, want)
				}
			}
		}
	}
}

// TestColumnBuffersStayUntouched pins the function/timing split: a full
// cohort run through the registry's Unit path (stage kernels with the
// device backend, then the writeback transpose) charges column-major
// traffic but never writes the column-major buffers, and every response
// is still byte-identical to host Execute.
func TestColumnBuffersStayUntouched(t *testing.T) {
	w := newKit(nil)
	for _, local := range []int{kitPage, kitMulti} {
		eng := sim.NewEngine()
		dev := simt.NewDevice(eng, simt.GTXTitan(), 16<<20, nil)
		reqs := kitRequests(t, local, 40)
		u := w.NewSlot(dev, len(reqs)).Bind(local, reqs, session.NewArray(16, 4), echoBackend{})
		stream := dev.NewStream()
		for k := 0; k < u.Stages(); k++ {
			stream.Launch(u.Stage(k), len(reqs), nil, nil)
		}
		u.Writeback(stream)
		eng.Run()
		if dev.Stats().Transactions == 0 {
			t.Fatalf("%s: cohort charged no memory traffic", w.Def(local).Name)
		}
		c := u.(*pageUnit).c
		for _, col := range []struct {
			name  string
			addr  mem.Addr
			bytes int
		}{
			{"RespCol", c.RespCol, c.Size * w.Def(local).BufferBytes},
			{"BReqBuf", c.BReqBuf, c.Size * BackendRequestSlot},
			{"BRespBuf", c.BRespBuf, c.Size * BackendResponseSlot},
		} {
			if b := dev.Mem.Bytes(col.addr, col.bytes); !bytes.Equal(b, make([]byte, col.bytes)) {
				t.Fatalf("%s: column buffer %s was written", w.Def(local).Name, col.name)
			}
		}
		sessions := session.NewArray(16, 4)
		for i := range reqs {
			want := w.RenderAlloc(w.Execute(local, &reqs[i], sessions, echoBackend{}, true))
			if got := u.Response(i); !bytes.Equal(got, want) {
				t.Fatalf("%s lane %d: response differs from host Execute:\n%q\nvs\n%q", w.Def(local).Name, i, got, want)
			}
		}
	}
}

func TestStageKernelVariableStageEarlyRetirement(t *testing.T) {
	w := newKit(nil)
	c, _ := kernelRun(t, w, kitMulti, kitRequests(t, kitMulti, 32), DeviceMode)
	early, full := 0, 0
	for r := 0; r < c.Count; r++ {
		ctx := c.Ctxs[r]
		if ctx.Err != "" {
			t.Fatalf("lane %d: %s", r, ctx.Err)
		}
		if ctx.Done {
			early++
		} else {
			full++
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("want a mix of early/full retirements, got %d/%d", early, full)
	}
}

func TestResetRejectsWrongClass(t *testing.T) {
	w := newKit(nil)
	dev := simt.NewDevice(sim.NewEngine(), simt.GTXTitan(), 4<<20, nil)
	c := w.NewCohort(dev, 1024, 8, DeviceMode)
	c.Reset(kitMulti, 8) // 1 KB buffers: fits
	defer func() {
		if recover() == nil {
			t.Error("binding a 2 KB type to a 1 KB class did not panic")
		}
	}()
	c.Reset(kitPage, 8)
}

func TestStoreColumnUnalignedOffsets(t *testing.T) {
	// A column store at any byte offset is priced as the word accesses a
	// CUDA thread issues — a partial leading word, aligned middle words,
	// a partial trailing word — so every distinct word it touches costs
	// one lockstep step, and (charge-only) the column buffer is never
	// written.
	const rows, n = 8, 18
	for start := 0; start < 8; start++ {
		eng := sim.NewEngine()
		dev := simt.NewDevice(eng, simt.GTXTitan(), 1<<20, nil)
		buf := dev.Mem.Alloc(rows*64, 256)
		var ls simt.LaunchStats
		dev.NewStream().Launch(simt.FuncProgram{Label: "uw", Body: func(th *simt.Thread) {
			chargeColumn(th, buf, th.ID, rows, start, n)
		}}, rows, nil, func(s simt.LaunchStats) { ls = s })
		eng.Run()
		// One step per word; the 8 lanes' 4-byte words of one step are
		// adjacent, so each step is one segment.
		words := int64((start+n-1)/wordSize - start/wordSize + 1)
		if ls.Transactions != words {
			t.Fatalf("start %d: %d transactions, want one per touched word (%d)", start, ls.Transactions, words)
		}
		if !bytes.Equal(dev.Mem.Bytes(buf, rows*64), make([]byte, rows*64)) {
			t.Fatalf("start %d: column buffer written", start)
		}
	}
}

func TestFillerExactLength(t *testing.T) {
	for _, n := range []int{1, 5, 9, 100, 555, 4096} {
		if got := len(Filler(fillerPara, n)); got != n {
			t.Fatalf("Filler(%d) = %d bytes", n, got)
		}
	}
}
