package dsm

import (
	"testing"

	"lrcrace/internal/mem"
)

// warmProc runs body on a one-process system with detection on, after a
// read and a write of every word of a four-page region in the open
// interval. The access path is then in its steady state: pages valid and
// owned, write notices taken, read and write bitmaps in place.
func warmProc(tb testing.TB, body func(p *Proc, base mem.Addr, words int)) {
	tb.Helper()
	s, err := New(Config{
		NumProcs:   1,
		SharedSize: 4 * mem.DefaultPageSize,
		PageSize:   mem.DefaultPageSize,
		Protocol:   SingleWriter,
		Detect:     true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	const words = 4 * mem.DefaultPageSize / mem.WordSize
	base, err := s.AllocWords("region", words)
	if err != nil {
		tb.Fatal(err)
	}
	err = s.Run(func(p *Proc) {
		for w := 0; w < words; w++ {
			a := base + mem.Addr(w*mem.WordSize)
			p.Write(a, p.Read(a)+1)
		}
		body(p, base, words)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkProcAccess times the instrumented access path the applications
// pay per shared access — Proc.Read then Proc.Write of one word, detection
// on, on warmed pages. One op is one read plus one write.
func BenchmarkProcAccess(b *testing.B) {
	warmProc(b, func(p *Proc, base mem.Addr, words int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := base + mem.Addr(i%words*mem.WordSize)
			p.Write(a, p.Read(a)+1)
		}
		b.StopTimer()
	})
}

// TestWarmAccessAllocatesNothing: once a page has been read and written in
// the open interval, further instrumented accesses to it allocate nothing.
func TestWarmAccessAllocatesNothing(t *testing.T) {
	warmProc(t, func(p *Proc, base mem.Addr, words int) {
		i := 0
		n := testing.AllocsPerRun(1000, func() {
			a := base + mem.Addr(i%words*mem.WordSize)
			p.Write(a, p.Read(a)+1)
			i++
		})
		if n != 0 {
			t.Errorf("warm Read+Write allocated %.2f times per access pair, want 0", n)
		}
	})
}
