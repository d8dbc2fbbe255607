package ssd

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/nand"
	"repro/internal/onfi"
)

// TestFillPatternMatchesReference pins the period-doubling FillPattern
// byte for byte against the per-byte definition, and checks it writes
// nothing past dst.
func TestFillPatternMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 255, 256, 257, 576, nand.Hynix().Geometry.FullPageBytes()}
	lpns := []int{0, 1, 7, 255, 256, 257, 4660, 65535, 65536, 65793, 1<<20 + 3}
	for _, n := range lengths {
		for _, lpn := range lpns {
			buf := bytes.Repeat([]byte{0xC3}, n+8)
			FillPattern(buf[:n], lpn)
			for i := 0; i < n; i++ {
				if want := byte(lpn>>8) ^ byte(lpn) ^ byte(i); buf[i] != want {
					t.Fatalf("len %d lpn %d: byte %d = %#x, want %#x", n, lpn, i, buf[i], want)
				}
			}
			for i := n; i < len(buf); i++ {
				if buf[i] != 0xC3 {
					t.Fatalf("len %d lpn %d: wrote byte %d past dst", n, lpn, i)
				}
			}
		}
	}
}

// preloadBuild is a 16 KiB-page rig with ECC and 32-page blocks.
func preloadBuild(ways, blocks int) BuildConfig {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = blocks
	p.Geometry.PagesPerBlk = 32
	return BuildConfig{Params: p, Ways: ways, Controller: CtrlBabolRTOS, WithECC: true}
}

// TestAllocGatePreload is the allocation-regression gate for Preload:
// preloaded rows borrow one shared image per pattern key instead of
// each holding a full page, so preloading every logical page of a
// 16 KiB-page rig must allocate well under one page per row. The
// preloaded array must also hold exactly what seeding each page with
// its pattern and parity through SeedPage stores.
func TestAllocGatePreload(t *testing.T) {
	rig := mustBuild(t, preloadBuild(4, 40))
	logical := rig.FTL.LogicalPages()
	full := rig.FTL.Geometry().FullPageBytes()
	if logical <= 8*256 {
		t.Fatalf("rig has %d logical pages; the gate needs more than %d", logical, 8*256)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocated := m1.TotalAlloc - m0.TotalAlloc
	if budget := uint64(logical*full) / 8; allocated >= budget {
		t.Fatalf("preloading %d pages allocated %d bytes, want < %d (1/8 of a full page per row)", logical, allocated, budget)
	}
	t.Logf("preloading %d pages of %d B allocated %d bytes", logical, full, allocated)

	// The byte-for-byte comparison runs on a smaller rig, still past 256
	// logical pages so some rows share an image: the reference encodes
	// parity page by page.
	rig = mustBuild(t, preloadBuild(1, 12))
	logical = rig.FTL.LogicalPages()
	if logical <= 256 {
		t.Fatalf("comparison rig has %d logical pages, want more than 256", logical)
	}
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	ref := mustBuild(t, preloadBuild(1, 12))
	s := ref.SSD
	page := make([]byte, s.pageBytes+s.parityBytes)
	for lpn := 0; lpn < logical; lpn++ {
		loc, err := s.ftl.AllocateWrite(lpn)
		if err != nil {
			t.Fatal(err)
		}
		FillPattern(page[:s.pageBytes], lpn)
		if err := s.codec.EncodePageInto(page[s.pageBytes:], page[:s.pageBytes]); err != nil {
			t.Fatal(err)
		}
		if err := s.backend.Chip(loc.Chip).SeedPage(loc.Row, page); err != nil {
			t.Fatal(err)
		}
	}
	for lpn := 0; lpn < logical; lpn++ {
		loc, ok := rig.FTL.Lookup(lpn)
		refLoc, refOK := ref.FTL.Lookup(lpn)
		if !ok || !refOK || loc != refLoc {
			t.Fatalf("lpn %d mapped to %v/%v, reference %v/%v", lpn, loc, ok, refLoc, refOK)
		}
		got := peek(t, rig, loc.Chip, loc.Row)
		if want := peek(t, ref, loc.Chip, loc.Row); !bytes.Equal(got, want) {
			t.Fatalf("lpn %d: preloaded page differs from the SeedPage reference", lpn)
		}
	}
}

func peek(t *testing.T, rig *Rig, chip int, row onfi.RowAddr) []byte {
	t.Helper()
	pg, err := rig.SSD.backend.Chip(chip).PeekPage(row)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}
