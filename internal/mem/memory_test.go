package mem

import (
	"bytes"
	"testing"
)

func TestAllocAlignment(t *testing.T) {
	m := New(1 << 20)
	a := m.Alloc(3, 1)
	b := m.Alloc(10, 128)
	if b%128 != 0 {
		t.Fatalf("Alloc returned unaligned address %d", b)
	}
	if b <= a {
		t.Fatalf("allocations overlap: %d then %d", a, b)
	}
	if m.Allocated() == 0 {
		t.Fatal("Allocated should be positive")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Error("over-allocation did not panic")
		}
	}()
	m.Alloc(128, 1)
}

func TestAllocBadAlignPanics(t *testing.T) {
	m := New(64)
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two align did not panic")
		}
	}()
	m.Alloc(8, 3)
}

func TestReadWriteZero(t *testing.T) {
	m := New(1024)
	a := m.Alloc(16, 1)
	m.Write(a, []byte("hello"))
	if got := string(m.Read(a, 5)); got != "hello" {
		t.Fatalf("Read = %q", got)
	}
	m.Zero(a, 5)
	if got := m.Read(a, 5); !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("Zero left %v", got)
	}
}

func TestBytesOutOfBoundsPanics(t *testing.T) {
	m := New(16)
	defer func() {
		if recover() == nil {
			t.Error("OOB access did not panic")
		}
	}()
	m.Bytes(8, 16)
}

func TestPoolGetPut(t *testing.T) {
	m := New(1 << 16)
	p := NewPool(m, 4, 256, 256)
	if p.Free() != 4 || p.Total() != 4 || p.SlotSize() != 256 {
		t.Fatalf("pool shape: free=%d total=%d slot=%d", p.Free(), p.Total(), p.SlotSize())
	}
	seen := map[Addr]bool{}
	var got []Addr
	for i := 0; i < 4; i++ {
		a, ok := p.Get()
		if !ok {
			t.Fatal("pool exhausted early")
		}
		if a%256 != 0 {
			t.Fatalf("slot %d unaligned", a)
		}
		if seen[a] {
			t.Fatalf("duplicate slot %d", a)
		}
		seen[a] = true
		got = append(got, a)
	}
	if _, ok := p.Get(); ok {
		t.Fatal("Get succeeded on empty pool")
	}
	p.Put(got[0])
	if a, ok := p.Get(); !ok || a != got[0] {
		t.Fatalf("recycled slot = %d, %v", a, ok)
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	m := New(1 << 12)
	p := NewPool(m, 1, 64, 64)
	a, _ := p.Get()
	p.Put(a)
	defer func() {
		if recover() == nil {
			t.Error("pool overflow did not panic")
		}
	}()
	p.Put(a)
}

func TestTransposeBytes(t *testing.T) {
	if TransposeBytes(4, 8) != 64 {
		t.Fatalf("TransposeBytes = %d", TransposeBytes(4, 8))
	}
}

func TestMemorySize(t *testing.T) {
	m := New(4096)
	if m.Size() != 4096 {
		t.Fatalf("Size = %d", m.Size())
	}
}
