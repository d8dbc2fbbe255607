package repro

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/hic"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// rtfMeasure runs the BenchmarkSimulationSpeed workload shape once and
// returns virtual-seconds per wall-second. Kept in lockstep with
// simulationSpeed in bench_test.go: same rig, same workload scaling.
func rtfMeasure(t *testing.T, channels, ways int) float64 {
	t.Helper()
	rig, err := ssd.Build(ssd.BuildConfig{
		Params: benchParams(), Channels: channels, Ways: ways, RateMT: 200,
		Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	working := 64 * channels
	if err := rig.SSD.Preload(working); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := hic.Run(rig.Kernel, rig.SSD, hic.Workload{
		Pattern: hic.Sequential, Kind: hic.KindRead,
		NumOps: 200 * channels, QueueDepth: 16 * channels, LogicalPages: working,
	}); err != nil {
		t.Fatal(err)
	}
	rig.Run()
	return sim.Duration(rig.Now()).Seconds() / time.Since(start).Seconds()
}

// TestRealTimeFactorFloor is the CI gate for simulation speed: the
// measured real-time factor must stay above the floors recorded in
// BENCH_9.json. The floors are deliberately far below the numbers a
// development machine measures (see BENCH_9.json's headline) — shared
// CI runners are slow and noisy — so a failure here means a multi-x
// regression in the event engine or the operation hot path, not
// scheduling jitter. Gated behind RTF_FLOOR_CHECK=1 because any
// wall-clock assertion is machine-dependent by nature.
func TestRealTimeFactorFloor(t *testing.T) {
	if os.Getenv("RTF_FLOOR_CHECK") == "" {
		t.Skip("wall-clock floor check; enable with RTF_FLOOR_CHECK=1")
	}
	raw, err := os.ReadFile("BENCH_9.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		CI struct {
			RTFFloor1ch8way          float64 `json:"rtf_floor_1ch_8way"`
			RTFFloorFullDrive8ch8way float64 `json:"rtf_floor_full_drive_8ch_8way"`
		} `json:"ci"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if bench.CI.RTFFloor1ch8way <= 0 || bench.CI.RTFFloorFullDrive8ch8way <= 0 {
		t.Fatal("BENCH_9.json ci floors missing or zero; the gate is vacuous")
	}
	for _, c := range []struct {
		name           string
		channels, ways int
		floor          float64
	}{
		{"1ch-8way", 1, 8, bench.CI.RTFFloor1ch8way},
		{"full-drive-8ch-8way", 8, 8, bench.CI.RTFFloorFullDrive8ch8way},
	} {
		// Best of three: the floor guards against code regressions, so
		// one clean run is evidence enough and transient machine noise
		// should not fail the gate.
		best := 0.0
		for i := 0; i < 3; i++ {
			if rtf := rtfMeasure(t, c.channels, c.ways); rtf > best {
				best = rtf
			}
		}
		if best < c.floor {
			t.Errorf("%s: real-time factor %.2f virtual-s/wall-s below floor %.2f (BENCH_9.json)",
				c.name, best, c.floor)
		} else {
			t.Logf("%s: %.2f virtual-s/wall-s (floor %.2f)", c.name, best, c.floor)
		}
	}
}
