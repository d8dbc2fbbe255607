package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
	"unsafe"

	"repro/internal/analyze"
	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// sample is everything one repeat of a workload measured: host (wall)
// times and memory, which vary run to run, and virtual-clock results
// and work counts, which must repeat exactly at one seed.
type sample struct {
	// Host wall times of the phases; wall runs from the ssd.Build call
	// to drain, run from the first enqueue to drain.
	build, preload, frontend, rigRun, analyze, verify time.Duration
	setup, wall, run                                  time.Duration
	allocBytes, gcPauseNs                             uint64
	gcCycles                                          uint32

	// Virtual-clock results.
	virtual   sim.Time
	cmds      int
	failed    int
	latencies []sim.Duration // enqueue→done of every successful command, sorted
	dataBytes uint64         // payload of successful reads and writes
	span      sim.Duration   // first enqueue to last completion
	counts    counts
	digest    [sha256.Size]byte

	// Traced repeats only: Submit wall time and dispatch→Done virtual
	// latency per command.
	submitWall time.Duration
	device     []sim.Duration // sorted
}

// counts are the per-layer work counters of one repeat, read from each
// package's public Stats after drain.
type counts struct {
	Events                      uint64 // sim: kernel events executed
	Txns, AdmissionWaits        uint64 // core
	CPUBusy                     sim.Duration
	NANDReads, NANDPrograms     uint64
	NANDErases, StatusReads     uint64
	Channels                    int
	BusBusy                     sim.Duration
	BusBytes                    uint64
	SSD                         ssd.Stats
	FTLWrites, FTLFlash, GCMove uint64
	MapHits, MapMisses          uint64
	MapFlushes                  uint64
	Dispatched                  uint64 // hic frontend, all queues
	ObsEvents                   int
	ObsBytes                    uint64 // retained bytes of the obs buffer
}

// hostLatencies collects the KindHostCmd completions RunTenants emits:
// the enqueue→done latency of every command, as a host would see it.
type hostLatencies struct{ lat []sim.Duration }

func (h *hostLatencies) Event(e obs.Event) {
	if e.Kind == obs.KindHostCmd && !e.Err {
		h.lat = append(h.lat, e.Dur)
	}
}

// runOnce builds the workload's rig, drives it to drain, checks the
// outcome, and tears it down. tr is nil on untraced repeats.
func runOnce(w *workload, seed int64, tr *tracer) (*sample, error) {
	s := &sample{}
	cfg := w.cfg
	var buf *obs.Buffer
	if w.observe {
		buf = &obs.Buffer{}
		cfg.Tracer, cfg.Observe = buf, true
	}
	// Start every repeat from a collected heap, as a fresh process
	// would, so one repeat's garbage is not billed to the next.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	t0 := time.Now()
	rig, err := ssd.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	defer rig.Close()
	t1 := time.Now()
	preload, tenants := w.plan(seed, rig.FTL.LogicalPages())
	if err := rig.SSD.Preload(preload); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	t2 := time.Now()
	var sub hic.Submitter = rig.SSD
	var cs *cmdSpans
	if tr != nil {
		cs = &cmdSpans{k: rig.Kernel, next: rig.SSD}
		sub = cs
	}
	f, err := hic.NewFrontend(rig.Kernel, sub, w.frontend)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	t3 := time.Now()
	host := &hostLatencies{}
	var hostTracer obs.Tracer = host
	if w.observe {
		hostTracer = obs.Multi{rig.HostTracer(), host}
	}
	results, err := hic.RunTenants(rig.Kernel, f, tenants, hostTracer)
	if err != nil {
		return nil, fmt.Errorf("run tenants: %w", err)
	}
	t4 := time.Now()
	rig.Run()
	t5 := time.Now()
	runtime.ReadMemStats(&m1)

	s.build, s.preload, s.frontend, s.rigRun = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t5.Sub(t4)
	s.setup, s.wall, s.run = t3.Sub(t0), t5.Sub(t0), t5.Sub(t3)
	s.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	s.virtual = rig.Now()

	var report *analyze.Result
	if w.observe {
		ta := time.Now()
		report = analyze.Analyze(buf.Events())
		s.analyze = time.Since(ta)
	}

	tv := time.Now()
	var verr error
	check := func() { verr = verify(rig, f, tenants, results, buf, report) }
	if tr != nil {
		// Verification is the benchmark's own work: label it so the
		// per-layer profile attribution can leave it out.
		pprof.Do(context.Background(), pprof.Labels("phase", "verify"), func(context.Context) { check() })
	} else {
		check()
	}
	s.verify = time.Since(tv)
	if verr != nil {
		ce := &checkError{err: verr}
		for i, r := range results {
			ce.attempted += tenants[i].NumOps
			ce.failed += r.Failed
		}
		return nil, ce
	}

	pageBytes := uint64(cfg.Params.Geometry.PageBytes)
	var first, last sim.Time
	for i, r := range results {
		s.cmds += r.Done()
		s.failed += r.Failed
		reads, writes := uint64(r.Reads), uint64(r.Writes)
		s.dataBytes += (reads + writes) * pageBytes
		if i == 0 || r.Start < first {
			first = r.Start
		}
		if r.End > last {
			last = r.End
		}
	}
	if s.failed > 0 {
		// Failed commands moved no data; the tenants' issued counts
		// overstate the payload, so drop the estimate rather than guess.
		s.dataBytes = 0
	}
	s.span = last.Sub(first)
	s.latencies = host.lat
	sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
	s.counts = readCounts(rig, f, buf)

	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %v %+v\n", s.virtual, s.cmds, s.failed, s.span, s.latencies, s.counts)
	for _, r := range results {
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d\n", r.Name, r.Completed, r.Failed,
			r.Reads, r.Writes, r.Trims, r.Start, r.End)
	}
	copy(s.digest[:], h.Sum(nil))

	if cs != nil {
		s.submitWall = cs.wall
		s.device = cs.deviceLatencies()
		tr.record(s, t0, cs)
	}
	return s, nil
}

// checkError is a failed correctness check, as opposed to an error that
// kept the benchmark from running at all. It carries the commands
// attempted and failed up to the check.
type checkError struct {
	err               error
	attempted, failed int
}

func (e *checkError) Error() string { return "correctness check failed: " + e.err.Error() }

// readCounts sums every layer's public counters over the rig.
func readCounts(rig *ssd.Rig, f *hic.Frontend, buf *obs.Buffer) counts {
	var c counts
	c.Events = rig.Kernel.Executed()
	c.Channels = len(rig.Channels)
	for _, ctrl := range rig.Babols {
		st := ctrl.Stats()
		c.Txns += st.TxnsExecuted
		c.AdmissionWaits += st.AdmissionWaits
		c.CPUBusy += ctrl.CPU().Stats().BusyTime
	}
	for _, ch := range rig.Channels {
		st := ch.Stats()
		c.BusBusy += st.BusyTime
		c.BusBytes += st.BytesIn + st.BytesOut
		for i := 0; i < ch.Chips(); i++ {
			ls := ch.Chip(i).Stats()
			c.NANDReads += ls.Reads
			c.NANDPrograms += ls.Programs
			c.NANDErases += ls.Erases
			c.StatusReads += ls.StatusReads
		}
	}
	c.SSD = rig.SSD.Stats()
	fs := rig.FTL.Stats()
	c.FTLWrites, c.FTLFlash, c.GCMove = fs.HostWrites, fs.FlashWrites, fs.GCMoves
	cache := rig.FTL.CacheStats()
	c.MapHits, c.MapMisses, c.MapFlushes = cache.Hits, cache.Misses, cache.Flushes
	for q := 0; q < f.Queues(); q++ {
		c.Dispatched += f.Stats(q).Dispatched
	}
	if buf != nil {
		c.ObsEvents = buf.Len()
		c.ObsBytes = uint64(cap(buf.Events())) * uint64(unsafe.Sizeof(obs.Event{}))
	}
	return c
}

// verify is the per-repeat correctness gate.
func verify(rig *ssd.Rig, f *hic.Frontend, tenants []hic.TenantSpec, results []*hic.TenantResult,
	buf *obs.Buffer, report *analyze.Result) error {
	for i, r := range results {
		if r.Done() != tenants[i].NumOps {
			return fmt.Errorf("tenant %s: %d of %d commands terminated", r.Name, r.Done(), tenants[i].NumOps)
		}
	}
	if !f.Drained() {
		return fmt.Errorf("frontend not drained: %d in flight, %d pending", f.InFlight(), f.Pending())
	}
	if err := rig.FTL.CheckInvariants(); err != nil {
		return fmt.Errorf("ftl invariants: %w", err)
	}
	// Every mapped page must hold the canonical pattern of its LPN: the
	// preload and every host write store ssd.FillPattern.
	geo := rig.FTL.Geometry()
	ways := rig.Channels[0].Chips()
	want := make([]byte, geo.PageBytes)
	mapped := 0
	for lpn := 0; lpn < rig.FTL.LogicalPages(); lpn++ {
		loc, ok := rig.FTL.Lookup(lpn)
		if !ok {
			continue
		}
		mapped++
		got, err := rig.Channels[loc.Chip/ways].Chip(loc.Chip % ways).PeekPage(loc.Row)
		if err != nil {
			return fmt.Errorf("lpn %d: %w", lpn, err)
		}
		ssd.FillPattern(want, lpn)
		if !bytes.Equal(got[:geo.PageBytes], want) {
			return fmt.Errorf("lpn %d at chip %d row %v: data differs from its fill pattern", lpn, loc.Chip, loc.Row)
		}
	}
	if mapped == 0 {
		return fmt.Errorf("no logical page is mapped after the run")
	}
	if buf == nil {
		return nil
	}
	snap := rig.Metrics.Snapshot()
	var busBusy, cpuBusy sim.Duration
	for _, ch := range rig.Channels {
		busBusy += ch.Stats().BusyTime
	}
	for _, ctrl := range rig.Babols {
		cpuBusy += ctrl.CPU().Stats().BusyTime
	}
	if snap.HardwareTime != busBusy {
		return fmt.Errorf("obs hardware time %d ps != bus busy time %d ps", snap.HardwareTime, busBusy)
	}
	if snap.SoftwareTime != cpuBusy {
		return fmt.Errorf("obs software time %d ps != cpumodel busy time %d ps", snap.SoftwareTime, cpuBusy)
	}
	if snap.Events != uint64(buf.Len()) {
		return fmt.Errorf("obs metrics saw %d events, buffer holds %d", snap.Events, buf.Len())
	}
	if n := len(report.Violations); n != 0 {
		return fmt.Errorf("analyze found %d protocol violations, first: %v", n, report.Violations[0])
	}
	return nil
}
