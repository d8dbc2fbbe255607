package ssd

import (
	"repro/internal/nand"
	"repro/internal/onfi"
	"repro/internal/ops"
)

// multiBackend fans the SSD's global chip index out over several
// channel controllers: chip = channel*ways + way. Each channel has its
// own bus and controller (hardware or BABOL), exactly like a real
// multi-channel SSD where the channels operate fully in parallel.
type multiBackend struct {
	ways     int
	channels []Backend
}

// NewMultiBackend stripes a fixed number of ways per channel across the
// given per-channel backends. The returned backend advertises copyback
// only when every channel supports it, so the SSD's capability check
// stays truthful for mixed configurations.
func NewMultiBackend(ways int, channels []Backend) Backend {
	mb := &multiBackend{ways: ways, channels: channels}
	for _, c := range channels {
		if _, ok := c.(Copybacker); !ok {
			return &plainMultiBackend{mb: mb}
		}
	}
	return mb
}

// plainMultiBackend forwards the Backend interface without exposing
// CopybackPage, hiding the capability when any channel lacks it.
type plainMultiBackend struct {
	mb *multiBackend
}

func (p *plainMultiBackend) Chip(i int) *nand.LUN { return p.mb.Chip(i) }
func (p *plainMultiBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	p.mb.ReadPage(chip, row, dramAddr, n, done)
}
func (p *plainMultiBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	p.mb.ProgramPage(chip, row, dramAddr, n, done)
}
func (p *plainMultiBackend) EraseBlock(chip, block int, done func(error)) {
	p.mb.EraseBlock(chip, block, done)
}

func (m *multiBackend) route(chip int) (Backend, int) {
	return m.channels[chip/m.ways], chip % m.ways
}

func (m *multiBackend) Chip(i int) *nand.LUN {
	be, way := m.route(i)
	return be.Chip(way)
}

func (m *multiBackend) ReadPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	be, way := m.route(chip)
	be.ReadPage(way, row, dramAddr, n, done)
}

func (m *multiBackend) ProgramPage(chip int, row onfi.RowAddr, dramAddr, n int, done func(error)) {
	be, way := m.route(chip)
	be.ProgramPage(way, row, dramAddr, n, done)
}

func (m *multiBackend) EraseBlock(chip, block int, done func(error)) {
	be, way := m.route(chip)
	be.EraseBlock(way, block, done)
}

// EraseBlockInterruptible implements InterruptibleEraser by forwarding
// to the chip's channel backend.
func (m *multiBackend) EraseBlockInterruptible(chip, block int, next func() (ops.UrgentRead, bool), done func(error)) {
	be, way := m.route(chip)
	if ie, ok := be.(InterruptibleEraser); ok {
		ie.EraseBlockInterruptible(way, block, next, done)
		return
	}
	be.EraseBlock(way, block, done)
}

// CopybackPage implements Copybacker when every channel backend does.
func (m *multiBackend) CopybackPage(chip int, src, dst onfi.RowAddr, done func(error)) {
	be, way := m.route(chip)
	if cb, ok := be.(Copybacker); ok {
		cb.CopybackPage(way, src, dst, done)
		return
	}
	// Fallback for mixed configurations: read + program through the
	// channel. The SSD assembly only takes the copyback path after a
	// type assertion on the whole backend, so this is defensive.
	done(errNoCopyback)
}

// errNoCopyback reports a copyback request against a channel that lacks
// the capability.
var errNoCopyback = errNoCopybackT{}

type errNoCopybackT struct{}

func (errNoCopybackT) Error() string { return "ssd: channel backend lacks copyback" }
