package mem

import "testing"

func BenchmarkPoolGetPut(b *testing.B) {
	m := New(1 << 22)
	p := NewPool(m, 64, 4096, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := p.Get()
		p.Put(a)
	}
}
