package ssd

import (
	"errors"

	"repro/internal/ops"
)

// Garbage collection: when a chip dips below its free-block watermark,
// the SSD picks the emptiest sealed block (greedy, via the FTL), copies
// its live pages to fresh locations through the controller, and erases
// the victim. GC runs one block at a time per chip and shares the normal
// datapath, so it naturally competes with host traffic for the channel.

func (s *SSD) maybeGC(chip int) {
	if s.gcRunning[chip] || !s.ftl.NeedsGC(chip) {
		return
	}
	block, live, ok := s.ftl.GCCandidate(chip)
	if !ok {
		return
	}
	if len(live) == s.ftl.Geometry().PagesPerBlk {
		// Even the emptiest sealed block is fully live: collecting it
		// would burn one block to free one block. Wait for host
		// overwrites to create garbage instead of livelocking.
		return
	}
	s.gcRunning[chip] = true
	s.stats.GCCycles++
	s.gcMove(chip, block, live, 0)
}

// gcMove relocates live[idx:] one page at a time, then erases the victim.
func (s *SSD) gcMove(chip, victim int, live []int, idx int) {
	if idx >= len(live) {
		outcome := func(err error) {
			switch {
			case err == nil:
				s.ftl.OnErased(chip, victim)
			case errors.Is(err, ops.ErrChipDead):
				// The chip wedged mid-erase and RESET could not revive
				// it: take the whole chip out of service (retiring one
				// block on a dead chip would be moot).
				s.offlineChip(chip)
			case errors.Is(err, ops.ErrResetRecovered):
				// The erase was aborted by RESET but the chip is healthy
				// again; leave the victim sealed so a later pass re-picks
				// and re-erases it.
				s.stats.RecoveredOps++
			default:
				// The block failed to erase: retire it, or GC would
				// re-pick the same victim forever.
				s.ftl.RetireBlock(chip, victim)
			}
		}
		tail := func() {
			s.gcRunning[chip] = false
			// Retry writes parked on out-of-space, then keep collecting
			// if still under the watermark.
			s.drainStalled()
			s.maybeGC(chip)
		}
		if s.suspendReads {
			// The erase pulls from our queue directly, and we hand
			// leftovers (reads that arrived after the erase's last check)
			// to the normal path on completion.
			if ie, ok := s.backend.(InterruptibleEraser); ok {
				q := &urgentQueue{}
				s.eraseQueues[chip] = q
				ie.EraseBlockInterruptible(chip, victim, q.next, func(err error) {
					outcome(err)
					delete(s.eraseQueues, chip)
					for {
						ur, ok := q.next()
						if !ok {
							break
						}
						s.backend.ReadPage(chip, ur.Addr.Row, ur.DramAddr, ur.N, ur.Done)
					}
					tail()
				})
				return
			}
		}
		s.backend.EraseBlock(chip, victim, func(err error) {
			outcome(err)
			tail()
		})
		return
	}
	lpn := live[idx]
	if s.inflightPrograms[lpn] > 0 {
		// The page's program has not landed in the array yet (the FTL
		// maps at allocation time, and the transaction scheduler may run
		// our relocation's read issue ahead of the program's data
		// transfer). Relocating now would copy erased cells; park this
		// step until the program lands.
		s.awaitProgram(lpn, func() { s.gcMove(chip, victim, live, idx) })
		return
	}
	src, ok := s.ftl.Lookup(lpn)
	if !ok || src.Row.Block != victim || src.Chip != chip {
		// The host overwrote this page since the candidate snapshot;
		// nothing to move.
		s.gcMove(chip, victim, live, idx+1)
		return
	}
	// Copyback path: relocate inside the LUN with no channel data
	// transfer when the controller supports it.
	if s.useCopyback {
		if cb, ok := s.backend.(Copybacker); ok {
			if dst, err := s.ftl.RelocateForGCOn(chip, lpn); err == nil {
				s.stats.GCCopybacks++
				s.programStarted(lpn)
				cb.CopybackPage(chip, src.Row, dst.Row, func(err error) {
					if err != nil {
						s.ftl.Invalidate(lpn)
						if errors.Is(err, ops.ErrChipDead) {
							s.offlineChip(chip)
						}
					}
					s.programLanded(lpn)
					s.gcMove(chip, victim, live, idx+1)
				})
				return
			}
			// No room for an intra-chip move (the chip's GC stream is out
			// of space): fall through to the cross-chip slot path instead
			// of silently abandoning the collection cycle mid-block.
		}
	}
	s.acquireSlot(func(addr int) {
		n := s.pageBytes + s.parityBytes
		s.backend.ReadPage(src.Chip, src.Row, addr, n, func(err error) {
			if err == nil && s.withECC {
				// Scrub in transit: correct accumulated bit errors and
				// regenerate parity, so relocations do not compound raw
				// errors generation over generation.
				err = s.scrubECC(addr)
			}
			if err != nil {
				// Unreadable victim page: drop it rather than wedge GC.
				s.ftl.Invalidate(lpn)
				s.releaseSlot(addr)
				s.gcMove(chip, victim, live, idx+1)
				return
			}
			var program func(attempt int)
			program = func(attempt int) {
				dst, err := s.ftl.RelocateForGC(lpn)
				if err != nil {
					// No chip anywhere has room for GC writes: spares are
					// exhausted drive-wide. Degrade to read-only instead of
					// abandoning the cycle and leaving stalled writes
					// parked forever.
					s.releaseSlot(addr)
					s.gcRunning[chip] = false
					s.enterDegraded()
					return
				}
				s.programStarted(lpn)
				s.backend.ProgramPage(dst.Chip, dst.Row, addr, n, func(err error) {
					if err == nil {
						s.programLanded(lpn)
						s.releaseSlot(addr)
						s.gcMove(chip, victim, live, idx+1)
						return
					}
					s.ftl.Invalidate(lpn)
					switch {
					case errors.Is(err, ops.ErrChipDead):
						s.offlineChip(dst.Chip)
					case errors.Is(err, ops.ErrResetRecovered):
						s.stats.RecoveredOps++
					default:
						s.ftl.RetireBlock(dst.Chip, dst.Row.Block)
					}
					if attempt+1 < maxProgramRetries {
						// The data is still staged in the slot: retry the
						// relocation elsewhere before landing this attempt,
						// so the in-flight count never dips to zero
						// mid-retry.
						program(attempt + 1)
						s.programLanded(lpn)
						return
					}
					// Out of attempts: the page is dropped from the map
					// rather than wedging the collection cycle.
					s.programLanded(lpn)
					s.releaseSlot(addr)
					s.gcMove(chip, victim, live, idx+1)
				})
			}
			program(0)
		})
	})
}
