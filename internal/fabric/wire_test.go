package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"rhythm/internal/httpx"
	"rhythm/internal/simt"
)

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedDispatch is a 19-byte dispatch payload — id, type, group, host
// flag — claiming n requests that never follow.
func forgedDispatch(n uint32) []byte {
	b := appendU64(nil, 1)
	b = appendU16(b, 0)
	b = appendU32(b, 0)
	b = append(b, 0)
	return appendU32(b, n)
}

// TestWireForgedCountsFailCheap: counts a frame cannot hold fail as
// truncated before the decoder allocates for them, and a forged length
// prefix costs the reader only what actually arrives.
func TestWireForgedCountsFailCheap(t *testing.T) {
	const budget = 1 << 20
	for _, n := range []uint32{1 << 22, 1<<32 - 1} {
		p := forgedDispatch(n)
		var err error
		if got := allocatedBy(func() { _, err = decodeDispatch(p) }); got >= budget {
			t.Errorf("decodeDispatch(n=%d) allocated %d bytes, want < %d", n, got, budget)
		}
		if err == nil {
			t.Errorf("decodeDispatch(n=%d) accepted a %d-byte payload", n, len(p))
		}
	}

	// A result claiming 65535 stages and 2^32-1 responses.
	res := encodeResult(&resultMsg{ID: 9})
	binary.LittleEndian.PutUint16(res[len(res)-6:], 0xffff)
	var err error
	if got := allocatedBy(func() { _, err = decodeResult(res) }); got >= budget || err == nil {
		t.Errorf("forged stage count: allocated %d bytes, err %v", got, err)
	}
	res = encodeResult(&resultMsg{ID: 9})
	binary.LittleEndian.PutUint32(res[len(res)-4:], 1<<32-1)
	if got := allocatedBy(func() { _, err = decodeResult(res) }); got >= budget || err == nil {
		t.Errorf("forged response count: allocated %d bytes, err %v", got, err)
	}

	// A frame prefix promising the maximum size, followed by the forged
	// 19-byte payload and then EOF.
	frame := binary.LittleEndian.AppendUint32(nil, maxFrameBytes)
	frame = append(frame, frameDispatch)
	frame = append(frame, forgedDispatch(1<<22)...)
	if got := allocatedBy(func() { _, _, _, err = readFrame(bytes.NewReader(frame)) }); got >= budget {
		t.Errorf("readFrame of a forged prefix allocated %d bytes, want < %d", got, budget)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("readFrame of a forged prefix: err %v, want unexpected EOF", err)
	}
}

// TestReadFrameGrowsAcrossChunks: a frame larger than one read chunk
// arrives intact.
func TestReadFrameGrowsAcrossChunks(t *testing.T) {
	payload := make([]byte, 3*frameChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	kind, got, wire, err := readFrame(bytes.NewReader(appendFrame(nil, frameResult, payload)))
	if err != nil || kind != frameResult || wire != 5+len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("kind %d, wire %d, err %v, payload intact %v", kind, wire, err, bytes.Equal(got, payload))
	}
}

// FuzzDecodeDispatch: any payload the decoder accepts survives the
// round trip decode(encode(m)) == m.
func FuzzDecodeDispatch(f *testing.F) {
	q, err := httpx.Parse([]byte("POST /post_transfer.php?x=1 HTTP/1.1\r\nCookie: MY_ID=00000000000000aa\r\nContent-Length: 23\r\n\r\nfrom=0&to=1&amount=1.00"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeDispatch(&dispatchMsg{ID: 7, Type: 3, Group: -1, Host: true, Reqs: []httpx.Request{q, {Path: "/x"}}}))
	f.Add(forgedDispatch(1 << 22))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeDispatch(p)
		if err != nil {
			return
		}
		back, err := decodeDispatch(encodeDispatch(&m))
		if err != nil {
			t.Fatalf("re-decoding an accepted message: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, back)
		}
	})
}

// sampleResult is a realistic result frame: a two-stage cohort with two
// responses.
func sampleResult() *resultMsg {
	return &resultMsg{
		ID: 42, Device: 3, Attempts: 2, Hops: 1, DeviceTime: 123456, RenderDurNs: 789,
		StageDurs: []int64{1500, 2500},
		Stages: []simt.LaunchStats{
			{Kernel: "rhythm_banking_login_s0", Threads: 64, Warps: 2, IssueCycles: 9000, MemBytes: 4096,
				Transactions: 64, IdealTxns: 32, BlockExecs: 10, DivergentExec: 1, Duration: 777, Seq: 5,
				Occupancy: 0.5, EnergyJ: 1e-6},
			{Kernel: "rhythm_banking_login_s1", Threads: 64, Warps: 2, Seq: 6},
		},
		Resps: [][]byte{[]byte("HTTP/1.1 200 OK\r\n\r\nA"), []byte("HTTP/1.1 200 OK\r\n\r\nB")},
	}
}

// FuzzDecodeResult: any payload the decoder accepts survives the round
// trip decode(encode(m)) == m. Messages are compared by their encoding:
// it covers every field bit for bit (a NaN occupancy included, which
// reflect.DeepEqual would call unequal to itself).
func FuzzDecodeResult(f *testing.F) {
	f.Add(encodeResult(sampleResult()))
	f.Add(encodeResult(&resultMsg{ID: 9, Err: "device lost", Host: true}))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeResult(p)
		if err != nil {
			return
		}
		enc := encodeResult(&m)
		back, err := decodeResult(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted message: %v", err)
		}
		if !bytes.Equal(encodeResult(&back), enc) || len(back.Resps) != len(m.Resps) || len(back.Stages) != len(m.Stages) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", m, back)
		}
	})
}

// FuzzDecodeHello: accepted hellos survive the round trip.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(hello{Version: wireVersion, Devices: 4, Groups: 8, NumTypes: 23,
		Workloads: []string{"banking", "ecom", "telemetry"}}))
	f.Add(encodeHello(hello{}))
	f.Fuzz(func(t *testing.T, p []byte) {
		h, err := decodeHello(p)
		if err != nil {
			return
		}
		back, err := decodeHello(encodeHello(h))
		if err != nil {
			t.Fatalf("re-decoding an accepted hello: %v", err)
		}
		if !reflect.DeepEqual(h, back) {
			t.Fatalf("round trip changed the hello:\n%+v\n%+v", h, back)
		}
	})
}

// FuzzDecodeNack: accepted nacks survive the round trip.
func FuzzDecodeNack(f *testing.F) {
	f.Add(encodeNack(nackMsg{ID: 77, Reason: 1}))
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := decodeNack(p)
		if err != nil {
			return
		}
		back, err := decodeNack(encodeNack(m))
		if err != nil || back != m {
			t.Fatalf("round trip: %+v -> %+v (err %v)", m, back, err)
		}
	})
}

// FuzzDecodeStats: accepted stats requests and replies survive the
// round trip.
func FuzzDecodeStats(f *testing.F) {
	f.Add(encodeStats(11, []byte(`{"devices":[]}`)), true)
	f.Add(encodeStatsReq(12), false)
	f.Fuzz(func(t *testing.T, p []byte, withBody bool) {
		m, err := decodeStats(p, withBody)
		if err != nil {
			return
		}
		enc := encodeStatsReq(m.ReqID)
		if withBody {
			enc = encodeStats(m.ReqID, m.JSON)
		}
		back, err := decodeStats(enc, withBody)
		if err != nil {
			t.Fatalf("re-decoding accepted stats: %v", err)
		}
		if back.ReqID != m.ReqID || !bytes.Equal(back.JSON, m.JSON) {
			t.Fatalf("round trip changed the stats message:\n%+v\n%+v", m, back)
		}
	})
}
