package banking

import (
	"bytes"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// kernelRig wires a device, sessions, and generator for direct kernel
// tests (the pipeline package tests the full flow; these pin the kernel
// contracts in isolation).
type kernelRig struct {
	eng      *sim.Engine
	dev      *simt.Device
	db       *backend.DB
	sessions *session.Array
	gen      *Generator
}

func newKernelRig(t *testing.T, memBytes int) *kernelRig {
	t.Helper()
	eng := sim.NewEngine()
	r := &kernelRig{
		eng:      eng,
		dev:      simt.NewDevice(eng, simt.GTXTitan(), memBytes, nil),
		db:       backend.New(),
		sessions: session.NewArray(256, 64),
	}
	r.gen = NewGenerator(9, r.sessions)
	r.gen.Populate(256)
	return r
}

func TestParserKernelColumnMajor(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	const n = 48
	pb := NewParseBatch(rig.dev, n)
	pb.Reset(n)
	raws := make([][]byte, n)
	for i := range raws {
		switch i % 3 {
		case 0:
			raws[i] = rig.gen.Request(Transfer)
		case 1:
			raws[i] = rig.gen.Request(Login)
		default:
			raws[i] = ImageRequest(i)
		}
	}
	// The request image stays row-major in Buf; ColMajor only changes
	// where the parser's loads are charged.
	rig.dev.Mem.Write(pb.Buf, PackRequests(raws))

	var ls simt.LaunchStats
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: true}), n, nil,
		func(s simt.LaunchStats) { ls = s })
	rig.eng.Run()

	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			if pb.Errs[i] != nil || pb.Types[i] != Transfer {
				t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
			}
		case 1:
			if pb.Errs[i] != nil || pb.Types[i] != Login {
				t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
			}
			if pb.Reqs[i].Param("userid") == "" {
				t.Fatalf("req %d: login params not extracted", i)
			}
		default:
			if !pb.IsImage[i] {
				t.Fatalf("req %d: image not recognized", i)
			}
		}
	}
	// Three request kinds in one cohort: the parser must have diverged.
	if ls.DivergentExec == 0 {
		t.Fatal("mixed parse reported no divergence")
	}
	if col := rig.dev.Mem.Bytes(pb.ColBuf, n*RequestSlot); !bytes.Equal(col, make([]byte, len(col))) {
		t.Fatal("column-major parse wrote its column buffer")
	}
}

func TestParserKernelRowMajor(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	const n = 8
	pb := NewParseBatch(rig.dev, n)
	pb.Reset(n)
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = rig.gen.Request(Profile)
	}
	rig.dev.Mem.Write(pb.Buf, PackRequests(raws))
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: false}), n, nil, nil)
	rig.eng.Run()
	for i := 0; i < n; i++ {
		if pb.Errs[i] != nil || pb.Types[i] != Profile {
			t.Fatalf("req %d: err=%v type=%v", i, pb.Errs[i], pb.Types[i])
		}
	}
}

func TestParserKernelMalformed(t *testing.T) {
	rig := newKernelRig(t, 16<<20)
	pb := NewParseBatch(rig.dev, 2)
	pb.Reset(2)
	rig.dev.Mem.Write(pb.Buf, PackRequests([][]byte{
		[]byte("NONSENSE"),
		[]byte("GET /not-a-page HTTP/1.1\r\n\r\n"),
	}))
	rig.dev.NewStream().Launch(NewParserProgram(ParserArgs{Batch: pb, ColMajor: false}), 2, nil, nil)
	rig.eng.Run()
	if pb.Errs[0] == nil || pb.Errs[1] == nil {
		t.Fatalf("errors not recorded: %v %v", pb.Errs[0], pb.Errs[1])
	}
}

// runStageKernels drives a typed cohort through every process stage with
// a chained device backend and returns the cohort.
func (rig *kernelRig) runStageKernels(t *testing.T, rt ReqType, n int) *service.Cohort {
	t.Helper()
	c := Workload.NewCohort(rig.dev, Specs[rt].BufferBytes(), n, service.DeviceMode)
	c.Reset(int(rt), n)
	for i := 0; i < n; i++ {
		req, err := httpx.Parse(rig.gen.Request(rt))
		if err != nil {
			t.Fatal(err)
		}
		c.Reqs[i] = req
	}
	stream := rig.dev.NewStream()
	for k := 0; k <= Specs[rt].Backends; k++ {
		stream.Launch(c.Stage(k, rig.sessions, rig.db), n, nil, nil)
	}
	rig.eng.Run()
	return c
}

func TestStageKernelsProduceValidResponses(t *testing.T) {
	rig := newKernelRig(t, 256<<20)
	const n = 32
	dc := rig.runStageKernels(t, AccountSummary, n)
	// Validate every response, read from its row-major home.
	for i := 0; i < n; i++ {
		if dc.Ctxs[i].Err != "" {
			t.Fatalf("req %d: %s", i, dc.Ctxs[i].Err)
		}
		resp := dc.Response(rig.dev.Mem, i)
		if err := Validate(AccountSummary, resp); err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
	}
}

func TestStageKernelQuickPayEarlyRetirement(t *testing.T) {
	rig := newKernelRig(t, 128<<20)
	const n = 32
	dc := rig.runStageKernels(t, QuickPay, n)
	early, full := 0, 0
	for i := 0; i < n; i++ {
		ctx := dc.Ctxs[i]
		if ctx.Err != "" {
			t.Fatalf("req %d: %s", i, ctx.Err)
		}
		if !ctx.Done {
			t.Fatalf("req %d never finished", i)
		}
		st := ctx.Data.(*quickPayState)
		if len(st.confs) != len(st.payees) {
			t.Fatalf("req %d: %d confs for %d payees", i, len(st.confs), len(st.payees))
		}
		if len(st.payees) < 3 {
			early++
		} else {
			full++
		}
	}
	if early == 0 || full == 0 {
		t.Fatalf("want a mix of early/full retirements, got %d/%d", early, full)
	}
}

func TestBindRejectsWrongClass(t *testing.T) {
	rig := newKernelRig(t, 64<<20)
	dc := Workload.NewCohort(rig.dev, 16<<10, 8, service.DeviceMode)
	dc.Reset(int(Transfer), 8) // 16 KB buffers: fits
	defer func() {
		if recover() == nil {
			t.Error("binding a 32 KB type to a 16 KB class did not panic")
		}
	}()
	dc.Reset(int(AccountSummary), 8)
}

func TestCohortDeviceBytesAccounting(t *testing.T) {
	if CohortDeviceBytes(Logout, 4096) <= CohortDeviceBytes(Login, 4096) {
		t.Fatal("64 KB buffers must dominate 8 KB buffers")
	}
	all := AllClassesDeviceBytes(1024)
	var classes int64
	for _, c := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		classes += ClassDeviceBytes(c, 1024)
	}
	if all != classes {
		t.Fatalf("AllClassesDeviceBytes = %d, want %d", all, classes)
	}
}
