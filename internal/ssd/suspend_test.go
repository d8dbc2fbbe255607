package ssd

import (
	"fmt"
	"testing"

	"repro/internal/hic"
	"repro/internal/sim"
)

// mixedLoad runs random reads against a drive under steady write+GC
// pressure and reports the read p99 latency.
func mixedLoad(t *testing.T, suspend bool) (sim.Duration, Stats) {
	t.Helper()
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 1
	cfg.SuspendReads = suspend
	// A long erase makes the contrast visible.
	cfg.Params.TBERS = 3 * sim.Millisecond
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}

	// Background writer: continuous overwrites keep GC (and its erases)
	// running.
	writes := 0
	var writeNext func()
	writeNext = func() {
		if writes >= logical*3 {
			return
		}
		writes++
		rig.SSD.Submit(hic.Command{Kind: hic.KindWrite, LPN: writes % logical, Done: func(err error) {
			if err != nil {
				t.Errorf("bg write: %v", err)
			}
			writeNext()
		}})
	}
	writeNext()

	// Foreground reader at QD1, paced so reads land at random phases of
	// the erase cycle.
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 80, QueueDepth: 1, LogicalPages: logical, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Kernel.Run()
	if res.Failed != 0 {
		t.Fatalf("%d reads failed", res.Failed)
	}
	return res.LatencyPercentile(99), rig.SSD.Stats()
}

func TestSuspendReadsCutTailLatency(t *testing.T) {
	p99Off, _ := mixedLoad(t, false)
	p99On, st := mixedLoad(t, true)
	if st.UrgentReads == 0 {
		t.Fatal("suspension path never used")
	}
	// With 3 ms erases in the way, suspension should cut read p99
	// decisively (paper-cited erase-suspend works show ~an order of
	// magnitude).
	if p99On >= p99Off/2 {
		t.Errorf("suspend p99 %v not well below baseline %v", p99On, p99Off)
	}
}

func TestSuspendReadsDataIntegrity(t *testing.T) {
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Ways = 1
	cfg.SuspendReads = true
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	// Overwrite churn with interleaved reads, then verify everything.
	n := 0
	var issue func()
	issue = func() {
		if n >= logical*4 {
			return
		}
		lpn := n % logical
		kind := hic.KindWrite
		if n%3 == 0 {
			kind = hic.KindRead
		}
		n++
		rig.SSD.Submit(hic.Command{Kind: kind, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("%v LPN %d: %v", kind, lpn, err)
			}
			issue()
		}})
	}
	for i := 0; i < 2; i++ {
		issue()
	}
	rig.Kernel.Run()
	if err := rig.FTL.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	verified := 0
	for lpn := 0; lpn < logical; lpn++ {
		rig.SSD.Submit(hic.Command{Kind: hic.KindRead, LPN: lpn, Done: func(err error) {
			if err != nil {
				t.Errorf("final read: %v", err)
			}
			verified++
		}})
	}
	rig.Kernel.Run()
	if verified != logical {
		t.Fatalf("verified %d/%d", verified, logical)
	}
}

// TestSuspendIgnoredOnHW sets SuspendReads on the hardware controller,
// alone and behind the multi-channel backend: neither offers an
// interruptible erase, so writes with GC complete on the ordinary erase
// path and no read is served as urgent.
func TestSuspendIgnoredOnHW(t *testing.T) {
	for _, channels := range []int{1, 2} {
		t.Run(fmt.Sprintf("channels=%d", channels), func(t *testing.T) {
			cfg := smallBuild(CtrlHW)
			cfg.Channels = channels
			cfg.Ways = 1
			cfg.SuspendReads = true
			rig := mustBuild(t, cfg)
			logical := rig.FTL.LogicalPages()
			res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
				Pattern: hic.Sequential, Kind: hic.KindWrite,
				NumOps: logical * 3, QueueDepth: 1, LogicalPages: logical,
			})
			if err != nil {
				t.Fatal(err)
			}
			rig.Kernel.Run()
			if res.Failed != 0 {
				t.Fatalf("%d failed", res.Failed)
			}
			if st := rig.SSD.Stats(); st.GCCycles == 0 || st.UrgentReads != 0 {
				t.Fatalf("want GC erases and no urgent reads on HW: %+v", st)
			}
		})
	}
}
