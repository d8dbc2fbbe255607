package nand

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/onfi"
	"repro/internal/pagebuf"
	"repro/internal/sim"
)

// ErrNotSuspendable reports a SUSPEND latched when no PROGRAM/ERASE is
// in flight — typically a benign race where the array finished just
// before the suspend arrived. Callers match it with errors.Is.
var ErrNotSuspendable = errors.New("no suspendable operation in flight")

// decodeState tracks where the LUN's command decoder is within a
// multi-latch command sequence.
type decodeState uint8

const (
	decIdle decodeState = iota
	decReadAddr
	decReadConfirm
	decChgRdColAddr
	decProgramAddr
	decProgramData
	decEraseAddr
	decCopybackAddr
	decPlaneSelAddr
	decReadIDAddr
	decSetFeatAddr
	decSetFeatData
	decGetFeatAddr
)

// arrayOp is the operation currently occupying the flash array.
type arrayOp uint8

const (
	arrNone arrayOp = iota
	arrRead
	arrProgram
	arrErase
	arrReset
)

func (o arrayOp) String() string {
	switch o {
	case arrRead:
		return "read"
	case arrProgram:
		return "program"
	case arrErase:
		return "erase"
	case arrReset:
		return "reset"
	default:
		return "none"
	}
}

// outputSource selects what DataOut streams.
type outputSource uint8

const (
	outNone outputSource = iota
	outStatus
	outPage
	outCache
	outID
	outFeature
	outParamPage
)

// tSuspend is the latency of accepting a PROGRAM/ERASE suspend.
const tSuspend = 20 * sim.Microsecond

// tResetIdle is the RESET busy time from an idle state.
const tResetIdle = 5 * sim.Microsecond

// TResetAbort is the RESET busy time when an array operation must be
// aborted — the worst-case RESET latency a recovery flow waits out.
const TResetAbort = 500 * sim.Microsecond

// tParamPage is the array time to fetch the parameter page.
const tParamPage = 25 * sim.Microsecond

// defaultPhase is the DQS phase register's power-on value.
const defaultPhase = 8

// Timing-mode feature encoding (simplified ONFI timing-mode byte): the
// high nibble selects the data interface.
const (
	sdrMode    = 0x00 // asynchronous SDR, ≤50 MT/s
	nvddrMode  = 0x10 // NV-DDR, ≤200 MT/s
	nvddr2Mode = 0x15 // NV-DDR2 mode 5, ≤533 MT/s
)

// MaxRateMT reports the fastest data-burst rate the LUN's current timing
// mode supports. Command/address latches are always legal (ONFI keeps
// them mode-agnostic so a controller can talk to a freshly booted part).
func (l *LUN) MaxRateMT() int {
	mode := l.features[onfi.FeatTimingMode][0]
	switch {
	case mode >= nvddr2Mode:
		return onfi.NVDDR2.MaxRateMT()
	case mode >= nvddrMode:
		return onfi.NVDDR.MaxRateMT()
	default:
		return onfi.SDR.MaxRateMT()
	}
}

// phaseTolerance is how far the phase register may sit from the
// instance's optimum before reads corrupt.
const phaseTolerance = 1

// LUN is one logical unit: a flash array plus its page and cache
// registers and command decoder. The channel bus drives it through Latch,
// DataIn, and DataOut; all methods take the current virtual time so the
// LUN can expire its busy intervals.
type LUN struct {
	params Params
	geo    onfi.Geometry

	// Array contents: row index → page data (no entry = erased). A
	// stored page is immutable: either a pooled buffer borrowed from
	// pool and owned by this LUN (programs, SeedPage), which an erase or
	// overwrite releases, or a shared image (SeedImage) that the LUN
	// only reads and never releases. Reads alias either kind; every
	// mutator copies into a LUN-owned register first.
	pages map[uint32]*pagebuf.Buf
	// pool supplies full-page buffers for programmed pages, shared
	// process-wide by geometry.
	pool *pagebuf.Pool
	// Per-block erase counts and bad-block marks.
	eraseCount []int
	bad        []bool
	programmed map[uint32]bool

	// Registers.
	pageReg  []byte
	cacheReg []byte
	column   int

	// Decoder state.
	dec       decodeState
	addrBytes []byte
	out       outputSource
	// lastDataOut remembers the data source READ STATUS interrupted, so
	// the ONFI READ MODE command (a bare 00h) can resume it.
	lastDataOut outputSource
	idOffset    int

	// Busy tracking. busyUntil gates command acceptance (RDY);
	// arrayBusyUntil gates the array (ARDY) and can extend past busyUntil
	// during cache operations.
	busyUntil      sim.Time
	arrayBusyUntil sim.Time
	curOp          arrayOp
	curRow         uint32

	// Pending-load bookkeeping: a read in flight deposits loadData into
	// pageReg when the array busy expires. loadData points at loadBuf
	// for plain reads (one buffer reused for the LUN's lifetime) or at a
	// plane buffer for multi-plane reads.
	loadPending bool
	loadData    []byte
	loadBuf     []byte

	// reg is the logical page-register content: either pageReg itself
	// (owned, mutable) or a read-only alias of a stored page, a plane
	// buffer, or the erased template, established by settle so clean
	// reads skip the array→register full-page copies. Mutators call
	// ownReg first; unalias materializes before a pooled source buffer
	// is released.
	reg         []byte
	regAliased  bool   // reg aliases a pooled stored page
	regRow      uint32 // the row reg aliases, when regAliased
	loadAliased bool   // loadData aliases a pooled stored page
	loadRow     uint32 // the row loadData aliases, when loadAliased
	erasedFF    []byte // shared all-0xFF page backing reads of erased rows

	// Cache-read sequencing.
	cacheRow     uint32
	cachePending bool // a 0x31/0x3F asked for pageReg→cacheReg at ARDY

	// Suspension.
	suspended   bool
	suspendRem  sim.Duration
	suspendedOp arrayOp

	// Mode flags.
	pslcNext bool // next array op runs in pseudo-SLC timing
	features map[onfi.FeatureAddr][4]byte

	// mp stages multi-plane compositions (see multiplane.go).
	mp mpState

	// paramPage caches the rendered ONFI parameter page, built on the
	// first READ PARAMETER PAGE.
	paramPage []byte
	// phaseOptimal is this instance's clean DQS phase (from Params,
	// defaulted).
	phaseOptimal int

	// Failure flags surfaced in the status register.
	failLast bool
	failPrev bool

	// faults, when non-nil, perturbs array operations (see fault.go).
	faults FaultInjector

	// Stats.
	stats Stats
}

// Stats counts LUN-level activity.
type Stats struct {
	Reads, Programs, Erases uint64
	StatusReads             uint64
	ProtocolErrors          uint64
	InjectedBitErrors       uint64
	SuspendCount, ResumeCnt uint64
}

// NewLUN builds a LUN from params. All blocks start erased with zero wear.
func NewLUN(p Params) (*LUN, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.Geometry
	l := &LUN{
		params:       p,
		geo:          g,
		pages:        make(map[uint32]*pagebuf.Buf),
		pool:         pagebuf.For(g.FullPageBytes()),
		programmed:   make(map[uint32]bool),
		eraseCount:   make([]int, g.BlocksPerLUN),
		bad:          make([]bool, g.BlocksPerLUN),
		pageReg:      make([]byte, g.FullPageBytes()),
		cacheReg:     make([]byte, g.FullPageBytes()),
		loadBuf:      make([]byte, g.FullPageBytes()),
		features:     make(map[onfi.FeatureAddr][4]byte),
		erasedFF:     erasedPage(g.FullPageBytes()),
		phaseOptimal: p.PhaseOptimal,
	}
	if l.phaseOptimal == 0 {
		l.phaseOptimal = defaultPhase
	}
	l.reg = l.pageReg
	l.powerOnFeatures()
	return l, nil
}

// erased shares one read-only all-0xFF page per full-page size across
// the process, so building a LUN does not fill its own.
var (
	erasedMu sync.Mutex
	erased   = map[int][]byte{}
)

// erasedPage returns the shared erased page of size bytes. Callers only
// read it.
func erasedPage(size int) []byte {
	erasedMu.Lock()
	defer erasedMu.Unlock()
	if pg, ok := erased[size]; ok {
		return pg
	}
	pg := make([]byte, size)
	for i := range pg {
		pg[i] = 0xFF
	}
	erased[size] = pg
	return pg
}

// powerOnFeatures loads the volatile feature registers with their
// power-on defaults. RESET returns the target to this state (ONFI: SET
// FEATURES settings are volatile and revert on reset).
func (l *LUN) powerOnFeatures() {
	for k := range l.features {
		delete(l.features, k)
	}
	// The phase trim register powers on at its default.
	l.features[onfi.FeatOutputPhase] = [4]byte{defaultPhase}
	// Timing mode register: ONFI mode 5 (NVDDR2) unless the instance
	// powers up in SDR and must be switched by the boot flow.
	if !l.params.BootInSDR {
		l.features[onfi.FeatTimingMode] = [4]byte{nvddr2Mode}
	}
}

// Params returns the LUN's parameter set.
func (l *LUN) Params() Params { return l.params }

// Stats returns a snapshot of the activity counters.
func (l *LUN) Stats() Stats { return l.stats }

// rowIndex flattens a row address.
func (l *LUN) rowIndex(r onfi.RowAddr) uint32 {
	return uint32(r.Block)*uint32(l.geo.PagesPerBlk) + uint32(r.Page)
}

func (l *LUN) rowOf(idx uint32) onfi.RowAddr {
	return onfi.RowAddr{Block: int(idx) / l.geo.PagesPerBlk, Page: int(idx) % l.geo.PagesPerBlk}
}

// jitterFor deterministically scales d by the per-page variation for row.
func (l *LUN) jitterFor(row uint32, d sim.Duration) sim.Duration {
	if l.params.JitterPct == 0 {
		return d
	}
	b := [4]byte{byte(row), byte(row >> 8), byte(row >> 16), byte(row >> 24)}
	// Map hash to [-JitterPct, +JitterPct] percent.
	span := int64(2*l.params.JitterPct + 1)
	pct := int64(fnv1a(b[:]))%span - int64(l.params.JitterPct)
	return d + sim.Duration(int64(d)*pct/100)
}

// Ready reports whether the LUN accepts new commands at time now.
func (l *LUN) Ready(now sim.Time) bool { return now >= l.busyUntil }

// ReadyAt reports when the LUN's R/B# pin deasserts — the dedicated
// ready/busy line hardware controllers monitor instead of polling READ
// STATUS over the shared channel.
func (l *LUN) ReadyAt() sim.Time { return l.busyUntil }

// ArrayReady reports whether the flash array is idle at time now.
func (l *LUN) ArrayReady(now sim.Time) bool { return now >= l.arrayBusyUntil }

// Status computes the status-register byte at time now.
func (l *LUN) Status(now sim.Time) byte {
	l.settle(now)
	var s byte = onfi.StatusWP
	if l.Ready(now) {
		s |= onfi.StatusRDY
	}
	if l.ArrayReady(now) {
		s |= onfi.StatusARDY
	}
	if l.failLast {
		s |= onfi.StatusFail
	}
	if l.failPrev {
		s |= onfi.StatusFailC
	}
	return s
}

// settle applies any state transitions whose time has arrived: pending
// page loads and cache transfers.
func (l *LUN) settle(now sim.Time) {
	// Reads are never suspendable, so a pending load settles regardless of
	// a suspended PROGRAM/ERASE.
	if l.loadPending && now >= l.arrayBusyUntil {
		if &l.loadData[0] == &l.loadBuf[0] {
			// The load was materialized into loadBuf (fault corruption or
			// wear-injected errors): swap the buffers in place of a
			// full-page copy.
			l.pageReg, l.loadBuf = l.loadBuf, l.pageReg
			l.reg = l.pageReg
			l.regAliased = false
		} else {
			// Clean load: the register aliases the source until a mutator
			// claims it (ownReg) — no page copy on the read hot path.
			l.reg = l.loadData
			l.regAliased = l.loadAliased
			l.regRow = l.loadRow
		}
		l.loadAliased = false
		l.loadPending = false
		l.curOp = arrNone
	}
	if l.cachePending && now >= l.arrayBusyUntil {
		copy(l.cacheReg, l.reg)
		l.cachePending = false
	}
}

// setDataOut switches the output source to a data register and records
// it for READ MODE resumption.
func (l *LUN) setDataOut(src outputSource) {
	l.out = src
	l.lastDataOut = src
}

func (l *LUN) protoErr(format string, args ...interface{}) error {
	l.stats.ProtocolErrors++
	return fmt.Errorf("nand/%s: %s", l.params.Name, fmt.Sprintf(format, args...))
}

// Latch feeds one command/address latch burst into the decoder, as the
// Command/Address Writer µFSM would drive it on the pins. The burst may
// carry any legal mix of command and address cycles.
func (l *LUN) Latch(now sim.Time, latches []onfi.Latch) error {
	l.settle(now)
	for _, latch := range latches {
		var err error
		if latch.Kind == onfi.LatchCmd {
			err = l.command(now, onfi.Cmd(latch.Value))
		} else {
			err = l.address(now, latch.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *LUN) command(now sim.Time, c onfi.Cmd) error {
	// Commands legal while busy.
	switch c {
	case onfi.CmdReadStatus, onfi.CmdReadStatusEnh:
		l.out = outStatus
		l.dec = decIdle
		l.stats.StatusReads++
		return nil
	case onfi.CmdReset, onfi.CmdSynchronousReset:
		return l.reset(now)
	case onfi.CmdSuspend:
		return l.suspend(now)
	case onfi.CmdResume:
		return l.resume(now)
	}

	if !l.Ready(now) {
		return l.protoErr("command %v while busy until %v (now %v)", c, l.busyUntil, now)
	}

	switch l.dec {
	case decIdle:
		switch c {
		case onfi.CmdRead1:
			l.dec = decReadAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdChangeReadCol1:
			l.dec = decChgRdColAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdChangeReadColE1:
			l.dec = decPlaneSelAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdProgram1:
			l.dec = decProgramAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdErase1:
			l.dec = decEraseAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdReadID:
			l.dec = decReadIDAddr
		case onfi.CmdReadParameterPg:
			if l.paramPage == nil {
				l.paramPage = buildParameterPage(l.params)
			}
			l.dec = decReadIDAddr
			l.setDataOut(outParamPage)
		case onfi.CmdSetFeatures:
			l.dec = decSetFeatAddr
		case onfi.CmdGetFeatures:
			l.dec = decGetFeatAddr
		case onfi.CmdCopybackProgram:
			// COPYBACK PROGRAM: target address follows; the page
			// register keeps the copyback-read content (unlike 80h,
			// which clears it to all-ones).
			l.dec = decCopybackAddr
			l.addrBytes = l.addrBytes[:0]
		case onfi.CmdPSLCEnable:
			if l.params.TRSLC == 0 {
				return l.protoErr("package does not support pSLC")
			}
			l.pslcNext = true
		case onfi.CmdCacheRead:
			return l.startCacheNext(now)
		case onfi.CmdCacheReadEnd:
			return l.endCache(now)
		default:
			return l.protoErr("unexpected command %v in idle state", c)
		}
	case decReadConfirm:
		switch c {
		case onfi.CmdRead2:
			return l.startRead(now, false)
		case onfi.CmdCacheRead:
			return l.startRead(now, true)
		case onfi.CmdCopybackRead:
			// READ FOR COPYBACK: same array fetch; the register content
			// is then consumed by COPYBACK PROGRAM instead of the bus.
			return l.startRead(now, false)
		case onfi.CmdMPReadQueue:
			return l.queueMPRead(now)
		default:
			return l.protoErr("expected READ confirm, got %v", c)
		}
	case decChgRdColAddr:
		if c == onfi.CmdChangeReadCol2 {
			if len(l.addrBytes) != 2 {
				return l.protoErr("CHANGE READ COLUMN with %d address cycles", len(l.addrBytes))
			}
			col := onfi.DecodeColAddr([2]byte{l.addrBytes[0], l.addrBytes[1]})
			if int(col) >= l.geo.FullPageBytes() {
				return l.protoErr("column %d out of range", col)
			}
			l.column = int(col)
			if l.out != outCache {
				l.setDataOut(outPage)
			}
			l.dec = decIdle
			return nil
		}
		return l.protoErr("expected CHANGE READ COLUMN confirm, got %v", c)
	case decPlaneSelAddr:
		if c == onfi.CmdChangeReadCol2 {
			return l.selectPlane(now)
		}
		return l.protoErr("expected CHANGE READ COLUMN ENHANCED confirm, got %v", c)
	case decProgramData:
		switch c {
		case onfi.CmdProgram2:
			return l.startProgram(now, false)
		case onfi.CmdMPProgramQueue:
			return l.queueMPProgram(now)
		case onfi.CmdCacheProgram2:
			return l.startProgram(now, true)
		case onfi.CmdChangeWriteCol:
			l.dec = decChgRdColAddr // reuse 2-byte column collection
			l.addrBytes = l.addrBytes[:0]
			return nil
		default:
			return l.protoErr("expected PROGRAM confirm, got %v", c)
		}
	case decCopybackAddr:
		if c == onfi.CmdProgram2 {
			return l.startProgram(now, false)
		}
		return l.protoErr("expected COPYBACK PROGRAM confirm, got %v", c)
	case decEraseAddr:
		switch c {
		case onfi.CmdErase2:
			return l.startErase(now)
		case onfi.CmdErase1:
			// Multi-plane erase: stash this plane's row, collect the next.
			if len(l.addrBytes) != 3 {
				return l.protoErr("multi-plane erase with %d address cycles", len(l.addrBytes))
			}
			row := l.geo.DecodeRowAddr([3]byte{l.addrBytes[0], l.addrBytes[1], l.addrBytes[2]})
			l.mp.eraseRows = append(l.mp.eraseRows, row)
			l.addrBytes = l.addrBytes[:0]
			return nil
		}
		return l.protoErr("expected ERASE confirm, got %v", c)
	default:
		return l.protoErr("unexpected command %v in decode state %d", c, l.dec)
	}
	return nil
}

func (l *LUN) address(now sim.Time, b byte) error {
	if !l.Ready(now) {
		return l.protoErr("address cycle while busy")
	}
	switch l.dec {
	case decReadAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) == 5 {
			l.dec = decReadConfirm
		}
	case decChgRdColAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) > 2 {
			return l.protoErr("too many column address cycles")
		}
	case decProgramAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) == 5 {
			var a5 [5]byte
			copy(a5[:], l.addrBytes)
			addr := l.geo.DecodeAddr(a5)
			if err := l.geo.CheckAddr(addr); err != nil {
				return l.protoErr("program address: %v", err)
			}
			l.curRow = l.rowIndex(addr.Row)
			l.column = int(addr.Col)
			// Program loads start from an all-ones register (NAND can
			// only clear bits). The fill overwrites everything, so any
			// alias is simply dropped rather than materialized.
			l.reg = l.pageReg
			l.regAliased = false
			copy(l.pageReg, l.erasedFF)
			l.dec = decProgramData
		}
	case decPlaneSelAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) > 5 {
			return l.protoErr("too many plane-select address cycles")
		}
	case decCopybackAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) == 5 {
			var a5 [5]byte
			copy(a5[:], l.addrBytes)
			addr := l.geo.DecodeAddr(a5)
			if err := l.geo.CheckAddr(addr); err != nil {
				return l.protoErr("copyback address: %v", err)
			}
			// Target latched; page register untouched — it still holds
			// the copyback-read data. Await the 10h confirm.
			l.curRow = l.rowIndex(addr.Row)
			l.column = int(addr.Col)
		}
		if len(l.addrBytes) > 5 {
			return l.protoErr("too many copyback address cycles")
		}
	case decEraseAddr:
		l.addrBytes = append(l.addrBytes, b)
		if len(l.addrBytes) > 3 {
			return l.protoErr("too many erase address cycles")
		}
	case decReadIDAddr:
		l.idOffset = int(b)
		if l.out == outParamPage {
			// READ PARAMETER PAGE: the array needs time to fetch the
			// page before it can stream out.
			l.column = 0
			l.busyUntil = now.Add(tParamPage)
			l.arrayBusyUntil = l.busyUntil
		} else {
			l.out = outID
			l.column = 0
		}
		l.dec = decIdle
	case decSetFeatAddr:
		l.addrBytes = []byte{b}
		l.dec = decSetFeatData
	case decGetFeatAddr:
		feat := l.features[onfi.FeatureAddr(b)]
		copy(l.cacheReg[:4], feat[:])
		l.out = outFeature
		l.column = 0
		l.dec = decIdle
	default:
		return l.protoErr("unexpected address cycle in decode state %d", l.dec)
	}
	return nil
}

// startRead begins the array read after a READ.1+addr+confirm sequence.
func (l *LUN) startRead(now sim.Time, cache bool) error {
	var a5 [5]byte
	copy(a5[:], l.addrBytes)
	addr := l.geo.DecodeAddr(a5)
	if err := l.geo.CheckAddr(addr); err != nil {
		return l.protoErr("read address: %v", err)
	}
	row := l.rowIndex(addr.Row)
	l.column = int(addr.Col)
	if !cache && len(l.mp.readRows) > 0 {
		return l.finishMPRead(now, row)
	}
	tr := l.params.TR
	if l.pslcNext {
		tr = l.params.TRSLC
		l.pslcNext = false
	}
	tr = l.jitterFor(row, tr)
	var fo FaultOutcome
	if l.faults != nil {
		fo = l.faults.OnRead(now, row)
		tr += fo.Delay
	}
	l.curOp = arrRead
	l.curRow = row
	l.cacheRow = row
	l.loadPending = true
	if src, clean := l.cleanSource(row, fo); clean {
		l.loadData = src
	} else {
		l.loadAliased = false
		l.readArrayInto(row, l.loadBuf)
		if fo.Corrupt {
			corruptBeyondECC(row, l.loadBuf)
		}
		l.loadData = l.loadBuf
	}
	l.arrayBusyUntil = now.Add(tr)
	if fo.Stuck {
		l.arrayBusyUntil = stuckUntil
	}
	if cache {
		// Cache confirm: page goes to cache register when loaded, and
		// the LUN stays RDY for data transfer of the *previous* page.
		l.cachePending = true
		l.setDataOut(outCache)
	} else {
		l.busyUntil = l.arrayBusyUntil
		l.setDataOut(outPage)
	}
	l.dec = decIdle
	l.failPrev = l.failLast
	l.failLast = false
	l.stats.Reads++
	return nil
}

// startCacheNext handles a bare 0x31: load the next sequential page into
// the page register while the cache register is transferred out.
func (l *LUN) startCacheNext(now sim.Time) error {
	if !l.ArrayReady(now) {
		return l.protoErr("cache-read continue while array busy")
	}
	l.settle(now)
	// Current page register content moves to cache for output.
	copy(l.cacheReg, l.reg)
	next := l.cacheRow + 1
	if int(next) >= l.geo.Pages() {
		return l.protoErr("cache read past end of LUN")
	}
	l.cacheRow = next
	l.curOp = arrRead
	l.curRow = next
	l.loadPending = true
	if src, clean := l.cleanSource(next, FaultOutcome{}); clean {
		l.loadData = src
	} else {
		l.loadAliased = false
		l.readArrayInto(next, l.loadBuf)
		l.loadData = l.loadBuf
	}
	l.arrayBusyUntil = now.Add(l.jitterFor(next, l.params.TR))
	l.setDataOut(outCache)
	l.column = 0
	l.stats.Reads++
	return nil
}

// endCache handles 0x3F: transfer the last loaded page to the cache
// register with no further array read.
func (l *LUN) endCache(now sim.Time) error {
	if !l.ArrayReady(now) {
		l.cachePending = true
	} else {
		l.settle(now)
		copy(l.cacheReg, l.reg)
	}
	l.setDataOut(outCache)
	l.column = 0
	return nil
}

func (l *LUN) startProgram(now sim.Time, cached bool) error {
	if !cached && len(l.mp.progRows) > 0 {
		return l.finishMPProgram(now, l.pslcNext)
	}
	row := l.curRow
	block := int(row) / l.geo.PagesPerBlk
	tp := l.params.TPROG
	if l.pslcNext {
		tp = l.params.TPROGSLC
		l.pslcNext = false
	}
	tp = l.jitterFor(row, tp)
	var fo FaultOutcome
	if l.faults != nil {
		fo = l.faults.OnProgram(now, row)
		tp += fo.Delay
	}
	l.failPrev = l.failLast
	l.failLast = false
	switch {
	case fo.Fail:
		// Injected program failure: StatusFail, array unchanged.
		l.failLast = true
	case l.bad[block]:
		l.failLast = true
	case l.programmed[row]:
		// NAND forbids re-programming without an erase.
		l.failLast = true
	default:
		l.storePage(row, l.reg)
	}
	l.curOp = arrProgram
	l.curRow = row
	l.arrayBusyUntil = now.Add(tp)
	if fo.Stuck {
		l.arrayBusyUntil = stuckUntil
	}
	if cached && !fo.Stuck {
		l.busyUntil = now.Add(3 * sim.Microsecond) // register handoff only
	} else {
		l.busyUntil = l.arrayBusyUntil
	}
	l.dec = decIdle
	l.stats.Programs++
	return nil
}

func (l *LUN) startErase(now sim.Time) error {
	if len(l.addrBytes) != 3 {
		return l.protoErr("erase with %d address cycles", len(l.addrBytes))
	}
	row := l.geo.DecodeRowAddr([3]byte{l.addrBytes[0], l.addrBytes[1], l.addrBytes[2]})
	if row.Block < 0 || row.Block >= l.geo.BlocksPerLUN {
		return l.protoErr("erase block %d out of range", row.Block)
	}
	l.failPrev = l.failLast
	l.failLast = false
	var fo FaultOutcome
	if l.faults != nil {
		fo = l.faults.OnErase(now, row.Block)
	}
	rows := append(append([]onfi.RowAddr{}, l.mp.eraseRows...), row)
	l.mp.eraseRows = nil
	var worst sim.Duration
	for _, r := range rows {
		block := r.Block
		if fo.Fail && block == row.Block {
			// Injected erase failure: StatusFail, block unchanged.
			l.failLast = true
		} else if l.bad[block] {
			l.failLast = true
		} else {
			l.eraseCount[block]++
			if l.eraseCount[block] > l.params.MaxPECycles {
				l.bad[block] = true
				l.failLast = true
			} else {
				base := uint32(block) * uint32(l.geo.PagesPerBlk)
				for p := uint32(0); p < uint32(l.geo.PagesPerBlk); p++ {
					l.dropPage(base + p)
					delete(l.programmed, base+p)
				}
			}
		}
		if d := l.jitterFor(uint32(block)*uint32(l.geo.PagesPerBlk), l.params.TBERS); d > worst {
			worst = d
		}
		l.stats.Erases++
	}
	l.stats.Erases-- // the shared accounting below counts one
	l.curOp = arrErase
	l.curRow = uint32(row.Block) * uint32(l.geo.PagesPerBlk)
	l.arrayBusyUntil = now.Add(worst + fo.Delay)
	if fo.Stuck {
		l.arrayBusyUntil = stuckUntil
	}
	l.busyUntil = l.arrayBusyUntil
	l.dec = decIdle
	l.stats.Erases++
	return nil
}

func (l *LUN) reset(now sim.Time) error {
	d := tResetIdle
	if !l.Ready(now) {
		d = TResetAbort // abort in progress
	}
	l.dec = decIdle
	l.out = outNone
	l.loadPending = false
	l.loadAliased = false
	l.cachePending = false
	l.suspended = false
	l.pslcNext = false
	l.failLast = false
	l.mp = mpState{}
	l.curOp = arrReset
	// SET FEATURES settings are volatile: RESET reverts them to their
	// power-on defaults (phase trim, timing mode).
	l.powerOnFeatures()
	l.busyUntil = now.Add(d)
	l.arrayBusyUntil = l.busyUntil
	if l.faults != nil && l.faults.OnReset(now) {
		// Persistent hardware failure: the LUN never comes back from
		// RESET. The controller's only remaining move is offlining it.
		l.busyUntil = stuckUntil
		l.arrayBusyUntil = stuckUntil
	}
	return nil
}

func (l *LUN) suspend(now sim.Time) error {
	if l.suspended {
		return l.protoErr("suspend while already suspended")
	}
	if l.ArrayReady(now) || (l.curOp != arrProgram && l.curOp != arrErase) {
		l.stats.ProtocolErrors++
		return fmt.Errorf("nand/%s: %w", l.params.Name, ErrNotSuspendable)
	}
	l.suspendRem = l.arrayBusyUntil.Sub(now)
	l.suspendedOp = l.curOp
	l.suspended = true
	l.busyUntil = now.Add(tSuspend)
	l.arrayBusyUntil = l.busyUntil
	l.curOp = arrNone
	l.stats.SuspendCount++
	return nil
}

func (l *LUN) resume(now sim.Time) error {
	if !l.suspended {
		return l.protoErr("resume with nothing suspended")
	}
	if !l.Ready(now) {
		return l.protoErr("resume while busy")
	}
	l.suspended = false
	l.curOp = l.suspendedOp
	l.arrayBusyUntil = now.Add(l.suspendRem)
	l.busyUntil = l.arrayBusyUntil
	l.stats.ResumeCnt++
	return nil
}

// readArrayInto fetches row's stored content (0xFF-filled if erased)
// into dst, a full-page buffer, with wear-dependent bit errors injected.
func (l *LUN) readArrayInto(row uint32, dst []byte) {
	if stored, ok := l.pages[row]; ok {
		copy(dst, stored.Bytes())
	} else {
		copy(dst, l.erasedFF)
	}
	l.injectErrors(row, dst)
}

// cleanSource returns a buffer that can back a pending load without a
// copy — the stored page itself, or the erased page — when nothing
// (fault corruption, wear-injected bit errors) would mutate the data.
func (l *LUN) cleanSource(row uint32, fo FaultOutcome) ([]byte, bool) {
	if fo.Corrupt || l.wearActive(row) {
		return nil, false
	}
	if stored, ok := l.pages[row]; ok {
		l.loadAliased = true
		l.loadRow = row
		return stored.Bytes(), true
	}
	l.loadAliased = false
	return l.erasedFF, true
}

// wearActive reports whether injectErrors would flip any bits for row.
// The condition mirrors its early-outs, so clean reads can alias the
// stored page instead of copying it through loadBuf.
func (l *LUN) wearActive(row uint32) bool {
	if l.params.RawBitErrorPer512B == 0 {
		return false
	}
	if l.eraseCount[int(row)/l.geo.PagesPerBlk] == 0 {
		return false
	}
	return l.retryMismatch(row) != 0 || l.params.ReadRetryLevels == 0
}

// ownReg makes the page register mutable: if reg aliases a stored page,
// a plane buffer, or the erased template, its bytes move into pageReg
// first (the deferred copy the alias saved on the read-only path).
func (l *LUN) ownReg() {
	if &l.reg[0] != &l.pageReg[0] {
		copy(l.pageReg, l.reg)
		l.reg = l.pageReg
		l.regAliased = false
	}
}

// unalias materializes any register/load alias of row before its pooled
// buffer is released back to the arena. (Aliases of a shared image need
// no care: images are never released.)
func (l *LUN) unalias(row uint32) {
	if l.loadAliased && l.loadRow == row {
		copy(l.loadBuf, l.loadData)
		l.loadData = l.loadBuf
		l.loadAliased = false
	}
	if l.regAliased && l.regRow == row {
		l.ownReg()
	}
}

// storePage commits a full page of data to the array in a pooled buffer
// and marks the row programmed.
func (l *LUN) storePage(row uint32, data []byte) {
	buf := l.pool.Get()
	copy(buf.Bytes(), data)
	l.setPage(row, buf)
}

// setPage stores page at row, releasing the page it replaces, and marks
// the row programmed.
func (l *LUN) setPage(row uint32, page *pagebuf.Buf) {
	if old, ok := l.pages[row]; ok {
		l.release(row, old)
	}
	l.pages[row] = page
	l.programmed[row] = true
}

// dropPage releases row's stored page, if any, and forgets it.
func (l *LUN) dropPage(row uint32) {
	if old, ok := l.pages[row]; ok {
		l.release(row, old)
		delete(l.pages, row)
	}
}

// release returns row's stored page to the arena if the LUN owns it; a
// shared image is left alone.
func (l *LUN) release(row uint32, page *pagebuf.Buf) {
	if !page.Shared() {
		l.unalias(row)
		page.Release()
	}
}

// DataIn accepts a data burst from the controller (Data Writer µFSM) into
// the page register at the current column, or feature data for SET
// FEATURES.
func (l *LUN) DataIn(now sim.Time, data []byte) error {
	l.settle(now)
	if !l.Ready(now) {
		return l.protoErr("data in while busy")
	}
	if l.dec == decSetFeatData {
		if len(data) != 4 {
			return l.protoErr("SET FEATURES needs 4 data bytes, got %d", len(data))
		}
		var v [4]byte
		copy(v[:], data)
		l.features[onfi.FeatureAddr(l.addrBytes[0])] = v
		l.dec = decIdle
		return nil
	}
	if l.dec != decProgramData {
		return l.protoErr("data in outside a program sequence")
	}
	if l.column+len(data) > len(l.pageReg) {
		return l.protoErr("data in overruns page register (col %d + %d bytes)", l.column, len(data))
	}
	l.ownReg()
	copy(l.pageReg[l.column:], data)
	l.column += len(data)
	return nil
}

// DataOut streams n bytes out of the LUN into a fresh slice. Hot paths
// use DataOutInto; this wrapper serves callers that want an owned copy.
func (l *LUN) DataOut(now sim.Time, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := l.DataOutInto(now, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DataOutInto streams len(dst) bytes out of the LUN (Data Reader µFSM)
// into dst: status, page/cache register contents from the current
// column, ID bytes, or feature data, depending on the preceding command.
// Every byte of dst is overwritten on success.
func (l *LUN) DataOutInto(now sim.Time, dst []byte) error {
	l.settle(now)
	// A bare 00h latch after READ STATUS is the ONFI READ MODE command:
	// it re-selects the interrupted data output. The decoder cannot
	// distinguish it from READ.1 until it sees what follows; data output
	// with zero collected address cycles resolves it.
	if l.dec == decReadAddr && len(l.addrBytes) == 0 && l.out == outStatus && l.lastDataOut != outNone {
		l.out = l.lastDataOut
		l.dec = decIdle
	}
	switch l.out {
	case outStatus:
		s := l.Status(now)
		for i := range dst {
			dst[i] = s
		}
		return nil
	case outPage:
		if !l.Ready(now) {
			return l.protoErr("page data out while busy")
		}
		if l.loadPending {
			return l.protoErr("page data out before load settled")
		}
		if err := l.copyRegisterInto(dst, l.reg); err != nil {
			return err
		}
		l.applyPhaseCorruption(dst)
		return nil
	case outCache:
		// Cache output is legal while the array is busy; RDY gates it.
		if now < l.busyUntil {
			return l.protoErr("cache data out while busy")
		}
		if err := l.copyRegisterInto(dst, l.cacheReg); err != nil {
			return err
		}
		l.applyPhaseCorruption(dst)
		return nil
	case outParamPage:
		if !l.Ready(now) {
			return l.protoErr("parameter page out while busy")
		}
		for i := range dst {
			idx := l.column + i
			// The package repeats parameter-page copies back to back.
			dst[i] = l.paramPage[idx%len(l.paramPage)]
		}
		l.column += len(dst)
		l.applyPhaseCorruption(dst)
		return nil
	case outID:
		for i := range dst {
			idx := l.idOffset + l.column + i
			if idx < len(l.params.IDBytes) {
				dst[i] = l.params.IDBytes[idx]
			} else {
				dst[i] = 0
			}
		}
		l.column += len(dst)
		return nil
	case outFeature:
		return l.copyRegisterInto(dst, l.cacheReg)
	default:
		return l.protoErr("data out with no output source selected")
	}
}

// applyPhaseCorruption garbles a data burst when the DQS phase trim is
// too far from this instance's optimum: the strobe samples DQ at the
// wrong instant and bits smear. Deterministic so calibration converges.
func (l *LUN) applyPhaseCorruption(out []byte) {
	cur := int(l.features[onfi.FeatOutputPhase][0])
	d := cur - l.phaseOptimal
	if d < 0 {
		d = -d
	}
	if d <= phaseTolerance {
		return
	}
	for i := range out {
		if i%2 == 0 {
			out[i] ^= 0xFF
		} else {
			out[i] ^= byte(d)
		}
	}
}

func (l *LUN) copyRegisterInto(dst, reg []byte) error {
	if l.column+len(dst) > len(reg) {
		return l.protoErr("data out overruns register (col %d + %d bytes)", l.column, len(dst))
	}
	copy(dst, reg[l.column:])
	l.column += len(dst)
	return nil
}
