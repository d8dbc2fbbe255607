package ssd

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hic"
	"repro/internal/obs"
	"repro/internal/sim"
)

// mixedRun drives one mixed workload — a scan of the preloaded drive,
// then background overwrite churn (GC, erases, copyback, ECC) with
// foreground random reads (urgent reads into suspended erases) — on a
// 4-channel rig, and returns a fingerprint of everything observable:
// the trace, the host results, and the SSD counters.
func mixedRun(t *testing.T) (string, Stats) {
	t.Helper()
	cfg := smallBuild(CtrlBabolRTOS)
	cfg.Channels = 4
	cfg.Ways = 1
	// More than 256 logical pages, so some preloaded LPNs share a
	// preload image (see Preload).
	cfg.Params.Geometry.BlocksPerLUN = 20
	cfg.WithECC = true
	cfg.UseCopyback = true
	cfg.SuspendReads = true
	cfg.Params.TBERS = 3 * sim.Millisecond
	cfg.Observe = true
	var trace obs.Buffer
	cfg.Tracer = &trace
	rig := mustBuild(t, cfg)
	logical := rig.FTL.LogicalPages()
	if err := rig.SSD.Preload(logical); err != nil {
		t.Fatal(err)
	}
	// The scan reads every preloaded page before any overwrite, and
	// some preload images back rows on two channels.
	channels := map[byte]map[int]bool{}
	for lpn := 0; lpn < logical; lpn++ {
		loc, _ := rig.FTL.Lookup(lpn)
		key := patternKey(lpn)
		if channels[key] == nil {
			channels[key] = map[int]bool{}
		}
		channels[key][loc.Chip] = true // one way per channel: chip = channel
	}
	shared := 0
	for _, chans := range channels {
		if len(chans) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no preload image backs rows on two channels")
	}
	scan, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: logical, QueueDepth: 8, LogicalPages: logical,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	if scan.Failed != 0 {
		t.Fatalf("%d scan reads failed", scan.Failed)
	}

	// Overwrite churn: enough to keep GC relocating and erasing
	// throughout the random reads.
	const churn = 672
	writes := 0
	var writeNext func()
	writeNext = func() {
		if writes >= churn {
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
	res, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Random, Kind: hic.KindRead,
		NumOps: 120, QueueDepth: 2, LogicalPages: logical, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.Run()
	if res.Failed != 0 {
		t.Fatalf("%d reads failed", res.Failed)
	}

	var fp strings.Builder
	fmt.Fprintf(&fp, "end=%v mean=%v p99=%v stats=%+v\n",
		res.End, res.MeanLatency(), res.LatencyPercentile(99), rig.SSD.Stats())
	for _, e := range trace.Events() {
		fmt.Fprintf(&fp, "%+v\n", e)
	}
	if rig.Metrics == nil || trace.Len() == 0 {
		t.Fatalf("observability stream missing (metrics=%v, %d events)",
			rig.Metrics != nil, trace.Len())
	}
	return fp.String(), rig.SSD.Stats()
}

// TestMixedWorkloadDeterminism runs the mixed workload twice and pins
// byte-identical fingerprints — trace, host latencies, and counters.
// The workload reaches a preload scan over shared images, GC with
// copyback and ECC, and urgent reads served inside suspended erases,
// so the determinism contract covers all of them at once.
func TestMixedWorkloadDeterminism(t *testing.T) {
	ref, stats := mixedRun(t)
	if stats.UrgentReads == 0 {
		t.Fatal("workload never served an urgent read inside an erase")
	}
	if stats.GCCycles == 0 || stats.GCCopybacks == 0 {
		t.Fatalf("workload never exercised GC/copyback: %+v", stats)
	}
	if got, _ := mixedRun(t); got != ref {
		t.Errorf("repeat run diverged:\n%s", firstDiff(ref, got))
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
