package ssd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hwctrl"
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
	"repro/internal/pagebuf"
)

// Copybacker is the optional backend capability of relocating a page
// inside one LUN with NAND copyback. The BABOL controller supports it
// (it is just another software operation); the hardware baseline would
// need a new FSM, so it does not — exactly the flexibility argument the
// paper makes.
type Copybacker interface {
	CopybackPage(chip int, src, dst onfi.RowAddr, done func(error))
}

// InterruptibleEraser is the optional backend capability of erasing a
// block while serving urgent reads mid-erase (suspend/resume). Like
// copyback, it is a pure software operation on BABOL and absent from the
// hardware baseline.
type InterruptibleEraser interface {
	EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error))
}

// babolBackend adapts the BABOL software-defined controller to the
// SSD's page-level interface.
type babolBackend struct {
	ctrl *core.Controller
}

// NewBabolBackend wraps a BABOL controller.
func NewBabolBackend(c *core.Controller) Backend { return &babolBackend{ctrl: c} }

func (b *babolBackend) Chip(i int) *nand.LUN { return b.ctrl.Channel().Chip(i) }

func (b *babolBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.ReadPage(onfi.Addr{Row: row}, dramAddr, n),
		Chip: chip,
		Done: done,
	})
}

func (b *babolBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.ProgramPage(onfi.Addr{Row: row}, dramAddr, n),
		Chip: chip,
		Done: done,
	})
}

func (b *babolBackend) EraseBlock(chip, block int, done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.EraseBlock(block),
		Chip: chip,
		Done: done,
	})
}

// CopybackPage implements Copybacker via the operation library.
func (b *babolBackend) CopybackPage(chip int, src, dst onfi.RowAddr, done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.CopybackPage(src, dst),
		Chip: chip,
		Done: done,
	})
}

// EraseBlockInterruptible implements InterruptibleEraser.
func (b *babolBackend) EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error)) {
	b.ctrl.Start(core.OpRequest{
		Func: ops.InterruptibleErase(block, next),
		Chip: chip,
		Done: done,
	})
}

// hwBackend adapts the hardware baseline controller.
type hwBackend struct {
	ctrl *hwctrl.Controller
}

// NewHWBackend wraps a hardware baseline controller.
func NewHWBackend(c *hwctrl.Controller) Backend { return &hwBackend{ctrl: c} }

func (b *hwBackend) Chip(i int) *nand.LUN { return b.ctrl.Channel().Chip(i) }

func (b *hwBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	if err := b.ctrl.Submit(chip, hwctrl.Request{
		Kind: hwctrl.KindRead, Addr: onfi.Addr{Row: row}, DRAMAddr: dramAddr, N: n, Done: done,
	}); err != nil {
		done(err)
	}
}

func (b *hwBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	if err := b.ctrl.Submit(chip, hwctrl.Request{
		Kind: hwctrl.KindProgram, Addr: onfi.Addr{Row: row}, DRAMAddr: dramAddr, N: n, Done: done,
	}); err != nil {
		done(err)
	}
}

func (b *hwBackend) EraseBlock(chip, block int, done func(error)) {
	if err := b.ctrl.Submit(chip, hwctrl.Request{
		Kind: hwctrl.KindErase, Addr: onfi.Addr{Row: onfi.RowAddr{Block: block}}, Done: done,
	}); err != nil {
		done(err)
	}
}

// Preload initializes the first `lpns` logical pages with the canonical
// pattern, installing FTL mappings and seeding the flash arrays directly
// (no simulated PROGRAM traffic) — how the paper "initializes the
// devices with data" before its fio runs.
//
// A page's pattern (and so its parity) depends on its LPN only through
// patternKey, so the drive holds at most 256 distinct preloaded pages:
// each is built once as a shared image — pattern, parity, zero pad —
// and every row with its key borrows it (nand.LUN.SeedImage).
func (s *SSD) Preload(lpns int) error {
	if lpns > s.ftl.LogicalPages() {
		return fmt.Errorf("ssd: preload of %d pages exceeds logical capacity %d", lpns, s.ftl.LogicalPages())
	}
	var images [256]*pagebuf.Buf
	for lpn := 0; lpn < lpns; lpn++ {
		loc, err := s.ftl.AllocateWrite(lpn)
		if err != nil {
			return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
		}
		key := patternKey(lpn)
		if images[key] == nil {
			page := make([]byte, s.ftl.Geometry().FullPageBytes())
			FillPattern(page[:s.pageBytes], lpn)
			if s.withECC {
				if err := s.codec.EncodePageInto(page[s.pageBytes:s.pageBytes+s.parityBytes], page[:s.pageBytes]); err != nil {
					return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
				}
			}
			images[key] = pagebuf.Image(page)
		}
		if err := s.backend.Chip(loc.Chip).SeedImage(loc.Row, images[key]); err != nil {
			return fmt.Errorf("ssd: preload LPN %d: %w", lpn, err)
		}
	}
	return nil
}
