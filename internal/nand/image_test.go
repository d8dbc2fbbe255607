package nand

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/onfi"
	"repro/internal/pagebuf"
	"repro/internal/sim"
)

// corruptReads is a fault injector that corrupts every read.
type corruptReads struct{}

func (corruptReads) OnRead(sim.Time, uint32) FaultOutcome    { return FaultOutcome{Corrupt: true} }
func (corruptReads) OnProgram(sim.Time, uint32) FaultOutcome { return FaultOutcome{} }
func (corruptReads) OnErase(sim.Time, int) FaultOutcome      { return FaultOutcome{} }
func (corruptReads) OnReset(sim.Time) bool                   { return false }

// TestSharedImageImmutable seeds rows on two LUNs from one shared image,
// then drives every path on the first LUN that starts from a register
// or load aliasing a stored page: program data-in after a read,
// copyback, cache read, multi-plane read, a fault-corrupted read, a read
// with wear-injected bit errors, erase, and reprogram. None may write
// the image, so its bytes and every row of the second LUN stay as
// seeded.
func TestSharedImageImmutable(t *testing.T) {
	p := twoPlane()
	p.RawBitErrorPer512B = 8 // aggressive, so worn small pages see flips
	a, err := NewLUN(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLUN(p)
	if err != nil {
		t.Fatal(err)
	}
	g := p.Geometry
	full := g.FullPageBytes()
	want := make([]byte, full)
	fillSeed(want)
	img := pagebuf.Image(append([]byte(nil), want...))
	var rows []onfi.RowAddr
	for blk := 0; blk < 4; blk++ {
		for pg := 0; pg < g.PagesPerBlk; pg++ {
			rows = append(rows, onfi.RowAddr{Block: blk, Page: pg})
		}
	}
	for _, l := range []*LUN{a, b} {
		for _, r := range rows {
			if err := l.SeedImage(r, img); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		if !bytes.Equal(img.Bytes(), want) {
			t.Fatalf("%s wrote the shared image", step)
		}
		for _, r := range rows {
			if got, _ := b.PeekPage(r); !bytes.Equal(got, want) {
				t.Fatalf("%s changed row %v of the other LUN", step, r)
			}
		}
	}
	now := sim.Time(0)
	idle := func() { now = now.Add(10 * sim.Millisecond) }
	latch := func(ls ...onfi.Latch) {
		t.Helper()
		if err := a.Latch(now, ls); err != nil {
			t.Fatal(err)
		}
	}
	addr := func(r onfi.RowAddr) []onfi.Latch { return g.AddrLatches(onfi.Addr{Row: r}) }
	cmd := onfi.CmdLatch
	out := func() []byte {
		t.Helper()
		got, err := a.DataOut(now, full)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	peek := func(r onfi.RowAddr) []byte {
		got, _ := a.PeekPage(r)
		return got
	}

	// A clean read aliases the image; the program that follows fills
	// the register and takes data in.
	latchRead(t, a, now, onfi.Addr{Row: rows[0]})
	idle()
	if !bytes.Equal(out(), want) {
		t.Fatal("clean read of the image returned other data")
	}
	fresh := onfi.RowAddr{Block: 6, Page: 0}
	latchProgram(t, a, now, onfi.Addr{Row: fresh}, bytes.Repeat([]byte{0x11}, g.PageBytes))
	idle()
	if got := peek(fresh); got[0] != 0x11 || got[full-1] != 0xFF {
		t.Fatalf("program after a read stored % X … % X", got[:2], got[full-2:])
	}
	check("data-in after a read")

	// Copyback: read for copyback, then program the register elsewhere.
	latch(append(append([]onfi.Latch{cmd(onfi.CmdRead1)}, addr(rows[1])...), cmd(onfi.CmdCopybackRead))...)
	idle()
	target := onfi.RowAddr{Block: 6, Page: 1}
	latch(append(append([]onfi.Latch{cmd(onfi.CmdCopybackProgram)}, addr(target)...), cmd(onfi.CmdProgram2))...)
	idle()
	if !bytes.Equal(peek(target), want) {
		t.Fatal("copyback of the image stored other data")
	}
	check("copyback")

	// Cache read: 31h after the address, a bare 31h, then 3Fh.
	latch(append(append([]onfi.Latch{cmd(onfi.CmdRead1)}, addr(rows[4])...), cmd(onfi.CmdCacheRead))...)
	idle()
	latch(cmd(onfi.CmdCacheRead))
	if !bytes.Equal(out(), want) {
		t.Fatal("cache read of the image returned other data")
	}
	idle()
	latch(cmd(onfi.CmdCacheReadEnd))
	if !bytes.Equal(out(), want) {
		t.Fatal("cache-read end of the image returned other data")
	}
	check("cache read")

	// Multi-plane read of one row per plane.
	if err := mpLatchRead(t, a, now, rows[8], onfi.CmdMPReadQueue); err != nil {
		t.Fatal(err)
	}
	now = now.Add(tDBSY)
	if err := mpLatchRead(t, a, now, rows[12], onfi.CmdRead2); err != nil {
		t.Fatal(err)
	}
	idle()
	if !bytes.Equal(out(), want) {
		t.Fatal("multi-plane read of the image returned other data")
	}
	check("multi-plane read")

	// A fault-corrupted read materializes and corrupts a copy.
	a.SetFaults(corruptReads{})
	latchRead(t, a, now, onfi.Addr{Row: rows[2]})
	idle()
	if bytes.Equal(out(), want) {
		t.Fatal("fault-corrupted read returned clean data")
	}
	a.SetFaults(nil)
	check("fault-corrupted read")

	// Wear-injected bit errors, on a row read off its optimal retry level.
	a.Wear(1, p.MaxPECycles)
	worn := rows[4]
	for _, r := range rows[4:8] {
		if a.OptimalRetryLevel(a.rowIndex(r)) != 0 {
			worn = r
			break
		}
	}
	latchRead(t, a, now, onfi.Addr{Row: worn})
	idle()
	if bytes.Equal(out(), want) {
		t.Fatal("worn read returned clean data")
	}
	check("worn read")

	// Erase drops block 0's rows; reprogram stores new data in one.
	latchErase(t, a, now, onfi.RowAddr{Block: 0})
	idle()
	if got := peek(rows[0]); got[0] != 0xFF || a.Programmed(rows[0]) {
		t.Fatal("erase left the image in place")
	}
	check("erase")
	latchProgram(t, a, now, onfi.Addr{Row: rows[0]}, bytes.Repeat([]byte{0x5A}, g.PageBytes))
	idle()
	if got := peek(rows[0]); got[0] != 0x5A {
		t.Fatal("reprogram after erase did not store its data")
	}
	check("reprogram")
}

func TestSeedImageRejectsPooledAndShortPages(t *testing.T) {
	l := newTestLUN(t)
	full := l.Params().Geometry.FullPageBytes()
	pooled := pagebuf.For(full).Get()
	defer pooled.Release()
	if err := l.SeedImage(onfi.RowAddr{}, pooled); err == nil {
		t.Error("SeedImage accepted a pooled buffer")
	}
	if err := l.SeedImage(onfi.RowAddr{}, pagebuf.Image(make([]byte, full-1))); err == nil {
		t.Error("SeedImage accepted a short image")
	}
	if err := l.SeedImage(onfi.RowAddr{Block: 99}, pagebuf.Image(make([]byte, full))); err == nil {
		t.Error("SeedImage accepted an out-of-range row")
	}
}

// TestNewLUNSharesErasedPage pins the cheap constructor: LUNs of one
// page size, built and read on several goroutines, read erased rows from
// one shared page, and the parameter page is rendered on first use.
func TestNewLUNSharesErasedPage(t *testing.T) {
	luns := make([]*LUN, 4)
	var wg sync.WaitGroup
	for i := range luns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := NewLUN(smallParams())
			if err != nil {
				t.Error(err)
				return
			}
			read := append([]onfi.Latch{onfi.CmdLatch(onfi.CmdRead1)}, l.geo.AddrLatches(onfi.Addr{Row: onfi.RowAddr{Block: i}})...)
			if err := l.Latch(0, append(read, onfi.CmdLatch(onfi.CmdRead2))); err != nil {
				t.Error(err)
				return
			}
			got, err := l.DataOut(sim.Time(sim.Millisecond), l.geo.FullPageBytes())
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, len(got))) {
				t.Errorf("erased read on LUN %d returned % X…", i, got[:4])
			}
			luns[i] = l
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, l := range luns[1:] {
		if &l.erasedFF[0] != &luns[0].erasedFF[0] {
			t.Error("two LUNs of one page size hold distinct erased pages")
		}
	}
	if luns[0].paramPage != nil {
		t.Error("parameter page rendered before READ PARAMETER PAGE")
	}
}
