package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttributeInnermostModuleFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// memmove on behalf of a strided store is simt's time.
		{[]string{"runtime.memmove", "rhythm/internal/simt.(*Thread).StoreStrided", "rhythm/internal/banking.kernelA", "rhythm/internal/simt.runWarp"}, "simt"},
		// A write syscall made by the connection loop is the frontend's.
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write", "rhythm.(*TCPServer).handle", "runtime.goexit"}, "rhythm"},
		// Transposes belong to mem even when simt drives them.
		{[]string{"runtime.memmove", "rhythm/internal/mem.TransposeElemsRange", "rhythm/internal/simt.(*Stream).TransposeLive"}, "mem"},
		// Sub-packages count as their internal/ package.
		{[]string{"rhythm/internal/obs/health.(*Engine).Observe"}, "obs"},
		// Type arguments may hold slashes; the package is before them.
		{[]string{"rhythm/internal/cohort.(*Pool[go.shape.*uint8]).Add", "rhythm.(*CohortServer).loop"}, "cohort"},
		{[]string{"rhythm/internal/cohort.Run[rhythm/internal/x.T]"}, "cohort"},
		// The benchmark's own frames are skipped: replay glue is no layer.
		{[]string{"runtime.nanotime", "rhythm/perfbench.hostReplay", "rhythm/internal/service.(*Registry).ExecuteHost"}, "service"},
		// Samples with no module frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketSched},
		{[]string{"compress/flate.(*compressor).deflate", "main.main"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAttributeSamplesWeightsAndLabels(t *testing.T) {
	ss := []profSample{
		{stack: []string{"runtime.memmove", "rhythm/internal/simt.(*Thread).StoreStrided"}, count: 3, weight: 30, labels: map[string]string{"side": "worker"}},
		{stack: []string{"rhythm/internal/fabric.(*Fabric).Dispatch"}, count: 1, weight: 10},
		{stack: []string{"rhythm/internal/mem.TransposeElemsRange"}, count: 1, weight: 10, labels: map[string]string{"side": "worker"}},
	}
	all := attributeSamples(ss, nil)
	if all.total != 50 || all.samples != 5 || all.share("simt") != 0.6 || all.share("fabric") != 0.2 {
		t.Errorf("unlabelled attribution %+v", all)
	}
	w := attributeSamples(ss, replayWorkerLabel)
	if w.total != 40 || w.share("simt") != 0.75 || w.share("mem") != 0.25 || w.by["fabric"] != 0 {
		t.Errorf("worker-labelled attribution %+v", w)
	}
}

//go:noinline
func burn(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

func TestParseProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("side", "worker"), func(context.Context) { burn(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	ss, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, burnt int64
	for _, s := range ss {
		if s.labels["side"] == "worker" {
			labelled += s.count
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "perfbench.burn") {
				burnt += s.count
				break
			}
		}
	}
	if burnt == 0 || labelled == 0 {
		t.Fatalf("decoded %d records: %d samples in burn, %d labelled", len(ss), burnt, labelled)
	}
	if _, err := parseProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
