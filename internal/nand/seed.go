package nand

import (
	"fmt"

	"repro/internal/onfi"
	"repro/internal/pagebuf"
)

// SeedPage stores data directly into the array, bypassing the ONFI
// protocol. Experiments use it to pre-initialize an SSD with data (the
// paper initializes its devices before running fio) without simulating
// hours of PROGRAM traffic. data shorter than a full page is zero-padded;
// longer data is an error. The LUN stores a copy, so the caller may
// reuse data.
func (l *LUN) SeedPage(row onfi.RowAddr, data []byte) error {
	if err := l.geo.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return err
	}
	if len(data) > l.geo.FullPageBytes() {
		return fmt.Errorf("nand: seed data of %d bytes exceeds page size %d", len(data), l.geo.FullPageBytes())
	}
	buf := l.pool.Get()
	// Pooled buffers arrive dirty: pad the tail past the seed data.
	page := buf.Bytes()
	n := copy(page, data)
	clear(page[n:])
	l.setPage(l.rowIndex(row), buf)
	return nil
}

// SeedImage stores a shared page image (see pagebuf.Image) at row
// without copying it, bypassing the ONFI protocol like SeedPage. The
// image must span a full page (data plus spare). The LUN reads it until
// an erase or overwrite drops it and never writes or releases it, so one
// image may back rows on any number of LUNs.
func (l *LUN) SeedImage(row onfi.RowAddr, img *pagebuf.Buf) error {
	if err := l.geo.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return err
	}
	if !img.Shared() {
		return fmt.Errorf("nand: seed image is a pooled buffer, not a shared image")
	}
	if img.Len() != l.geo.FullPageBytes() {
		return fmt.Errorf("nand: seed image of %d bytes, want a full page of %d", img.Len(), l.geo.FullPageBytes())
	}
	l.setPage(l.rowIndex(row), img)
	return nil
}

// PeekPage returns a copy of the array's stored content for row without
// timing, busy, or error-injection effects — the test-and-debug view.
// Erased pages read as all 0xFF.
func (l *LUN) PeekPage(row onfi.RowAddr) ([]byte, error) {
	if err := l.geo.CheckAddr(onfi.Addr{Row: row}); err != nil {
		return nil, err
	}
	out := make([]byte, l.geo.FullPageBytes())
	if stored, ok := l.pages[l.rowIndex(row)]; ok {
		copy(out, stored.Bytes())
	} else {
		copy(out, l.erasedFF)
	}
	return out, nil
}

// Programmed reports whether row has been programmed since its block was
// last erased.
func (l *LUN) Programmed(row onfi.RowAddr) bool {
	return l.programmed[l.rowIndex(row)]
}
