// Package ftl implements a page-level Flash Translation Layer for one
// channel: logical-to-physical mapping, a striped write allocator that
// spreads load across the channel's chips, greedy garbage collection,
// and wear accounting.
//
// The FTL is a pure policy module: it decides *where* pages live and
// *what* to move, while the SSD assembly (internal/ssd) executes the
// resulting flash operations through a controller. That separation
// mirrors Figure 1, where the FTL requests page- and block-level
// operations that the Storage Controller implements.
//
// The package is split by concern:
//
//   - ftl.go: configuration, chip/block allocation state, write
//     allocator, wear accounting, recovery hooks (RetireBlock,
//     OfflineChip).
//   - shard.go: the L2P map, sharded by LPN range into independently
//     locked segments with lazily allocated storage.
//   - cache.go: the DRAM-budgeted translation-page cache (FMMU-style
//     demand paging of map groups with clock eviction).
//   - gc.go: garbage-collection policy (victim selection, relocation).
//
// Locking discipline (see shard.go for the map side): every chip's
// allocation state is guarded by its own mutex, and every map shard by
// its own RWMutex. Lock order is always shard → chip, and neither chip
// nor shard locks ever nest with their own kind, so the FTL is safe for
// the concurrent readers the monitoring path brings (Lookup, Stats,
// LivePages from another goroutine mid-run) as well as for parallel
// lookup storms in benchmarks.
package ftl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/onfi"
)

// Location is a physical page address on the channel.
type Location struct {
	Chip int
	Row  onfi.RowAddr
}

// invalidLPN marks a physical page holding no live logical page.
const invalidLPN = -1

// blockState tracks one physical block. The reverse map is allocated on
// first write (see allocateOn): a never-written block costs no O(pages)
// memory, which is what keeps TB-class geometries buildable.
type blockState struct {
	nextPage int   // write frontier within the block
	valid    int   // live pages
	lpns     []int // reverse map: page → LPN (or invalidLPN); nil until first write
	sealed   bool  // fully written
	bad      bool  // retired: never allocated or collected again
}

// chipState tracks allocation on one chip. Host and GC writes use
// separate active blocks ("streams"): GC must always be able to relocate
// a victim's live pages, so the host may never consume the space GC
// opened for itself. mu guards every field; chip locks are leaves (they
// never nest with each other or with map-shard locks taken after them).
type chipState struct {
	mu        sync.Mutex
	blocks    []blockState
	freeList  []int // erased blocks available for allocation
	active    int   // block accepting host writes (-1 none)
	activeGC  int   // block accepting GC relocations (-1 none)
	erases    int
	livePages int
	wear      []int // per-block erase counts (FTL's own view)
	// offline removes the chip from every allocation and GC decision
	// after the controller declared it dead (see OfflineChip).
	offline bool
}

// Config assembles an FTL. The zero value of the optional fields picks
// the defaults New uses.
type Config struct {
	Geometry onfi.Geometry
	Chips    int
	// ReservedBlocks per chip are withheld from the logical capacity as
	// GC headroom (over-provisioning); at least one is required.
	ReservedBlocks int
	// MapShards splits the L2P map into independently locked LPN-range
	// shards. Shard boundaries are rounded to whole translation-page
	// groups so a map page never straddles shards. 0 defaults to one
	// shard per chip, which is what rigs built by internal/ssd use. The
	// shard count changes locking and memory granularity only — never
	// any allocation decision — so results are identical at every count.
	MapShards int
	// MapCacheBytes bounds the DRAM the translation map may occupy:
	// map pages (groups of L2P entries, one NAND page each) are
	// demand-paged under this budget with clock eviction. 0 disables the
	// cache — the whole map is modeled as resident, the legacy behavior.
	// The effective budget is floored at one map page per shard so every
	// shard can make progress. See cache.go.
	MapCacheBytes int64
}

// FTL maps logical pages onto a channel of identical chips.
type FTL struct {
	geo      onfi.Geometry
	chips    int
	reserved int // blocks per chip kept free for GC (over-provisioning)
	logical  int

	// L2P map shards; see shard.go. shardSize is a multiple of
	// groupEntries so every translation page belongs to one shard.
	shards    []mapShard
	shardSize int

	// Translation-page cache configuration; see cache.go. groupEntries
	// is computed even when the cache is disabled (shard sizing rounds
	// to it).
	cacheEnabled  bool
	groupEntries  int // L2P entries per translation page
	groupBytes    int
	budgetBytes   int64
	slotsPerShard int

	chipRR   atomic.Int64 // round-robin write-striping cursor
	chipsArr []chipState

	n counters
}

// counters is the FTL's internal counter block. All fields are atomics
// so Stats and CacheStats snapshots are safe from any goroutine while
// the simulation mutates the FTL — the `-http` monitoring path.
type counters struct {
	hostWrites  atomic.Uint64
	flashWrites atomic.Uint64
	gcMoves     atomic.Uint64
	gcErases    atomic.Uint64
	badBlocks   atomic.Uint64

	mapHits      atomic.Uint64
	mapMisses    atomic.Uint64
	mapEvictions atomic.Uint64
	mapFlushes   atomic.Uint64
	mapBypasses  atomic.Uint64
}

// Stats counts FTL activity.
type Stats struct {
	HostWrites  uint64 // logical page writes accepted
	FlashWrites uint64 // physical page programs issued (host + GC)
	GCMoves     uint64 // live pages relocated by GC
	GCErases    uint64
	BadBlocks   uint64 // blocks retired after program/erase failures
}

// WriteAmplification reports flash writes per host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostWrites == 0 {
		return 0
	}
	return float64(s.FlashWrites) / float64(s.HostWrites)
}

// New builds an FTL over `chips` identical chips with the given
// geometry and default map sharding (no map cache) — the signature
// every pre-existing caller and test uses.
func New(geo onfi.Geometry, chips, reservedBlocks int) (*FTL, error) {
	return NewWithConfig(Config{Geometry: geo, Chips: chips, ReservedBlocks: reservedBlocks})
}

// NewWithConfig builds an FTL per cfg.
func NewWithConfig(cfg Config) (*FTL, error) {
	geo := cfg.Geometry
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Chips <= 0 {
		return nil, fmt.Errorf("ftl: need at least one chip, got %d", cfg.Chips)
	}
	if cfg.ReservedBlocks < 1 || cfg.ReservedBlocks >= geo.BlocksPerLUN {
		return nil, fmt.Errorf("ftl: reserved blocks %d out of range [1,%d)", cfg.ReservedBlocks, geo.BlocksPerLUN)
	}
	if cfg.MapShards < 0 {
		return nil, fmt.Errorf("ftl: negative map shard count %d", cfg.MapShards)
	}
	if cfg.MapCacheBytes < 0 {
		return nil, fmt.Errorf("ftl: negative map cache budget %d", cfg.MapCacheBytes)
	}
	f := &FTL{geo: geo, chips: cfg.Chips, reserved: cfg.ReservedBlocks}
	f.logical = f.chips * (geo.BlocksPerLUN - f.reserved) * geo.PagesPerBlk
	f.groupEntries = geo.PageBytes / mapEntryBytes
	if f.groupEntries < 1 {
		f.groupEntries = 1
	}
	f.groupBytes = f.groupEntries * mapEntryBytes
	f.initShards(cfg.MapShards)
	f.initCache(cfg.MapCacheBytes)
	f.chipsArr = make([]chipState, cfg.Chips)
	for c := range f.chipsArr {
		cs := &f.chipsArr[c]
		cs.blocks = make([]blockState, geo.BlocksPerLUN)
		cs.wear = make([]int, geo.BlocksPerLUN)
		cs.active = -1
		cs.activeGC = -1
		cs.freeList = make([]int, 0, geo.BlocksPerLUN)
		for b := range cs.blocks {
			cs.freeList = append(cs.freeList, b)
		}
	}
	return f, nil
}

func newLPNSlice(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = invalidLPN
	}
	return s
}

// LogicalPages reports the exported logical capacity in pages.
func (f *FTL) LogicalPages() int { return f.logical }

// Geometry returns the per-chip geometry.
func (f *FTL) Geometry() onfi.Geometry { return f.geo }

// Chips reports the channel width the FTL manages.
func (f *FTL) Chips() int { return f.chips }

// Stats returns a snapshot of the counters. Safe to call from any
// goroutine while the simulation runs (the counters are atomics).
func (f *FTL) Stats() Stats {
	return Stats{
		HostWrites:  f.n.hostWrites.Load(),
		FlashWrites: f.n.flashWrites.Load(),
		GCMoves:     f.n.gcMoves.Load(),
		GCErases:    f.n.gcErases.Load(),
		BadBlocks:   f.n.badBlocks.Load(),
	}
}

// AllocateWrite assigns the next physical page for a host write of lpn,
// invalidating any previous mapping, and returns where to program. The
// caller must then actually program the page and, on success, keep the
// mapping (on program failure call Invalidate and retry).
func (f *FTL) AllocateWrite(lpn int) (Location, error) {
	loc, err := f.allocate(lpn, false)
	if err != nil {
		return loc, err
	}
	f.n.hostWrites.Add(1)
	f.n.flashWrites.Add(1)
	return loc, nil
}

// allocate places lpn on some chip. Host allocations (gc=false) must
// leave one free block per chip untouched as GC headroom: garbage
// collection needs somewhere to relocate live pages, and granting the
// host the last block would deadlock a full drive.
func (f *FTL) allocate(lpn int, gc bool) (Location, error) {
	if lpn < 0 || lpn >= f.logical {
		return Location{}, fmt.Errorf("ftl: LPN %d out of range [0,%d)", lpn, f.logical)
	}
	sh := f.shard(lpn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Find a chip with space first: a failed write must leave any
	// existing mapping (and its data) intact.
	rr := int(f.chipRR.Load())
	chip := -1
	for try := 0; try < f.chips; try++ {
		c := (rr + try) % f.chips
		cs := &f.chipsArr[c]
		cs.mu.Lock()
		ok := f.hasSpace(cs, gc)
		cs.mu.Unlock()
		if ok {
			chip = c
			break
		}
	}
	if chip < 0 {
		return Location{}, fmt.Errorf("ftl: out of space (GC required on all chips)")
	}
	// Drop the stale copy, then place the new one (striping round-robin).
	f.clearMappingLocked(sh, lpn)
	loc, ok := f.allocateOn(chip, lpn, gc)
	if !ok {
		return Location{}, fmt.Errorf("ftl: chip %d lost its space mid-allocation", chip)
	}
	f.chipRR.Store(int64((chip + 1) % f.chips))
	f.setMappingLocked(sh, lpn, loc)
	return loc, nil
}

// hasSpace reports whether a chip can accept one more page write in the
// given stream under the GC-headroom rule: the host may never open the
// last free block. Caller holds cs.mu.
func (f *FTL) hasSpace(cs *chipState, gc bool) bool {
	if cs.offline {
		return false
	}
	if gc {
		return cs.activeGC >= 0 || len(cs.freeList) > 0
	}
	return cs.active >= 0 || len(cs.freeList) > 1
}

// allocateOn takes the chip's next page in the given stream and records
// the chip-side reverse mapping. The map-side entry is the caller's to
// set (under the LPN's shard lock, which the caller holds).
func (f *FTL) allocateOn(chip, lpn int, gc bool) (Location, bool) {
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	stream := &cs.active
	if gc {
		stream = &cs.activeGC
	}
	if *stream < 0 {
		if !f.hasSpace(cs, gc) {
			return Location{}, false
		}
		// Wear-aware allocation: open the least-worn free block, so
		// erase cycles spread evenly instead of hammering whichever
		// block happens to sit at the list head (dynamic wear leveling).
		pick := 0
		for i := 1; i < len(cs.freeList); i++ {
			if cs.wear[cs.freeList[i]] < cs.wear[cs.freeList[pick]] {
				pick = i
			}
		}
		*stream = cs.freeList[pick]
		cs.freeList = append(cs.freeList[:pick], cs.freeList[pick+1:]...)
	}
	blk := &cs.blocks[*stream]
	if blk.lpns == nil {
		blk.lpns = newLPNSlice(f.geo.PagesPerBlk)
	}
	row := onfi.RowAddr{Block: *stream, Page: blk.nextPage}
	blk.lpns[blk.nextPage] = lpn
	blk.valid++
	blk.nextPage++
	cs.livePages++
	if blk.nextPage == f.geo.PagesPerBlk {
		blk.sealed = true
		*stream = -1
	}
	return Location{Chip: chip, Row: row}, true
}

// invalidateLoc drops the chip-side reverse mapping at loc.
func (f *FTL) invalidateLoc(loc Location) {
	cs := &f.chipsArr[loc.Chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	blk := &cs.blocks[loc.Row.Block]
	if blk.lpns != nil && blk.lpns[loc.Row.Page] != invalidLPN {
		blk.lpns[loc.Row.Page] = invalidLPN
		blk.valid--
		cs.livePages--
	}
}

// FreeBlocks reports erased blocks available on a chip.
func (f *FTL) FreeBlocks(chip int) int {
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.freeList)
}

// RetireBlock permanently removes a block from service after the media
// reported a program or erase failure (grown bad block). Live pages the
// caller could not relocate must be invalidated separately; the block is
// dropped from the free list and from both write streams and will never
// be selected again. Only the owning chip's lock is taken — retirement
// on one chip never stalls lookups or GC scans elsewhere.
func (f *FTL) RetireBlock(chip, block int) {
	if chip < 0 || chip >= f.chips {
		return
	}
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if block < 0 || block >= len(cs.blocks) || cs.blocks[block].bad {
		return
	}
	blk := &cs.blocks[block]
	blk.bad = true
	blk.sealed = true
	f.n.badBlocks.Add(1)
	for i, b := range cs.freeList {
		if b == block {
			cs.freeList = append(cs.freeList[:i], cs.freeList[i+1:]...)
			break
		}
	}
	if cs.active == block {
		cs.active = -1
	}
	if cs.activeGC == block {
		cs.activeGC = -1
	}
}

// OfflineChip removes a chip from service after the controller
// declared it dead (unresponsive through RESET recovery): both write
// streams close, the chip stops being an allocation target, and GC
// never selects it again. Mappings that point at the chip are kept —
// the data may be partly recoverable offline — but reads against them
// are the caller's problem to fail fast.
func (f *FTL) OfflineChip(chip int) {
	if chip < 0 || chip >= f.chips {
		return
	}
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.offline = true
	cs.active = -1
	cs.activeGC = -1
}

// ChipOffline reports whether a chip was removed from service.
func (f *FTL) ChipOffline(chip int) bool {
	if chip < 0 || chip >= f.chips {
		return false
	}
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.offline
}

// ForceSealGC closes a chip's partially written GC-stream block so it
// becomes a collection candidate, wasting its unwritten pages. FTLs do
// this when the drive wedges with all garbage trapped in the open GC
// block: relocated pages that the host has since overwritten are dead,
// but an unsealed block can never be picked as a victim. Reports whether
// a block was sealed.
func (f *FTL) ForceSealGC(chip int) bool {
	if chip < 0 || chip >= f.chips {
		return false
	}
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.activeGC < 0 {
		return false
	}
	cs.blocks[cs.activeGC].sealed = true
	cs.activeGC = -1
	return true
}

// OnErased returns a block to a chip's free pool after the physical
// erase completed. Erasing a block that still holds live pages is a
// caller bug and panics.
func (f *FTL) OnErased(chip, block int) {
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	blk := &cs.blocks[block]
	if blk.valid != 0 {
		panic(fmt.Sprintf("ftl: erasing block %d on chip %d with %d live pages", block, chip, blk.valid))
	}
	for i := range blk.lpns {
		blk.lpns[i] = invalidLPN
	}
	blk.nextPage = 0
	blk.sealed = false
	cs.erases++
	cs.wear[block]++
	cs.freeList = append(cs.freeList, block)
	f.n.gcErases.Add(1)
}

// WearSpread reports max−min erase counts across a chip's healthy
// blocks — the metric dynamic wear leveling bounds.
func (f *FTL) WearSpread(chip int) int {
	if chip < 0 || chip >= f.chips {
		return 0
	}
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	min, max, seen := 0, 0, false
	for b := range cs.blocks {
		if cs.blocks[b].bad {
			continue
		}
		w := cs.wear[b]
		if !seen {
			min, max, seen = w, w, true
			continue
		}
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	return max - min
}

// BlockWear reports the FTL-tracked erase count of one block.
func (f *FTL) BlockWear(chip, block int) int {
	if chip < 0 || chip >= f.chips {
		return 0
	}
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if block < 0 || block >= len(cs.wear) {
		return 0
	}
	return cs.wear[block]
}

// LivePages reports mapped logical pages on a chip.
func (f *FTL) LivePages(chip int) int {
	cs := &f.chipsArr[chip]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.livePages
}
