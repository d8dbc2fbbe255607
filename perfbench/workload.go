package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/hic"
	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// workload is one named benchmark input: the rig to build, how much of
// it to preload, the frontend in front of it, and the tenants that
// drive it. All load is closed-loop in virtual time: every tenant keeps
// a fixed window of outstanding commands.
type workload struct {
	name string
	cfg  ssd.BuildConfig
	// observe arms an obs.Buffer tracer plus Rig.Metrics and runs
	// analyze.Analyze over the captured stream after drain.
	observe bool
	// plan sizes the preload and the tenant cast from the rig's logical
	// capacity and the workload seed.
	plan     func(seed int64, logical int) (preload int, tenants []hic.TenantSpec)
	frontend hic.FrontendConfig
}

// workloads are the benchmark's inputs. Each exercises layers another
// bypasses (README.md and BENCHMARK.json record which): the full-drive
// sequential scan moves 16 KiB payloads through the event kernel and
// controllers with no writes, GC or map cache; the tenant rig carries
// GC, trims and map-cache misses on 512 B pages; the traced tenant rig
// adds the obs and analyze pipeline.
var workloads = []*workload{
	{
		name: "seqread-fulldrive",
		cfg: ssd.BuildConfig{
			Params: fullDriveParams(), Channels: 8, Ways: 8, RateMT: 200,
			Controller: ssd.CtrlBabolRTOS, CPUMHz: 1000,
		},
		plan:     seqreadPlan,
		frontend: hic.FrontendConfig{Queues: []hic.QueueConfig{{Depth: seqreadDepth}}},
	},
	{
		name:     "tenants-gc",
		cfg:      tenantsConfig(),
		plan:     tenantsPlan,
		frontend: tenantsFrontend(),
	},
	{
		name:     "tenants-obs",
		cfg:      tenantsConfig(),
		observe:  true,
		plan:     tenantsPlan,
		frontend: tenantsFrontend(),
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// fullDriveParams is the Hynix package shrunk to 16 blocks per LUN, the
// rig of the repository's full-drive real-time-factor benchmark.
func fullDriveParams() nand.Params {
	p := nand.Hynix()
	p.Geometry.BlocksPerLUN = 16
	return p
}

const (
	// seqreadDepth is the single tenant's and the single queue's window.
	seqreadDepth = 128
	// seqreadPages is the scanned working set: 16 pages on each of the
	// 64 LUNs.
	seqreadPages = 1024
	// seqreadOps reads the working set four times over.
	seqreadOps = 4 * seqreadPages
	// seqreadOffsets is how many start positions the seed chooses from.
	// The scan is always sequential; the seed only shifts it, which
	// changes which rows (and so which per-row tR jitter) it reads.
	seqreadOffsets = 64
)

func seqreadPlan(seed int64, _ int) (int, []hic.TenantSpec) {
	off := int(splitmix(uint64(seed)) % seqreadOffsets)
	return seqreadPages + seqreadOffsets, []hic.TenantSpec{{
		Name: "seq-scan", Queue: 0, QueueDepth: seqreadDepth, NumOps: seqreadOps,
		Pattern: hic.Sequential, SliceStart: off, SlicePages: seqreadPages,
	}}
}

// tenantsWays is the tenant rig's channel width.
const tenantsWays = 4

// tenantsOps is each tenant's command count.
const tenantsOps = 1000

// tenantsParams is the 4-way shrunk Hynix of the repository's tenant
// QoS experiment: 512 B pages keep payload copies negligible, and 64
// blocks of 16 pages make GC frequent.
func tenantsParams() nand.Params {
	p := nand.Hynix()
	p.Geometry.Planes = 1
	p.Geometry.BlocksPerLUN = 64
	p.Geometry.PagesPerBlk = 16
	p.Geometry.PageBytes = 512
	p.Geometry.SpareBytes = 64
	p.TR = 20 * sim.Microsecond
	p.TPROG = 50 * sim.Microsecond
	p.TBERS = 200 * sim.Microsecond
	p.JitterPct = 0
	p.RawBitErrorPer512B = 0
	return p
}

func tenantsConfig() ssd.BuildConfig {
	return ssd.BuildConfig{
		Params: tenantsParams(), Ways: tenantsWays, RateMT: 200,
		Controller: ssd.CtrlBabolCoro, CPUMHz: 1000,
		MapCacheBytes: 2 << 10,
	}
}

// tenantsFrontend gives each tenant its own queue with a window of 8,
// caps device-wide commands at two per way so arbitration has to
// choose, and makes queue 0 the privileged WRR class.
func tenantsFrontend() hic.FrontendConfig {
	qs := make([]hic.QueueConfig, 4)
	for i := range qs {
		qs[i] = hic.QueueConfig{Depth: 8, Weight: 1}
	}
	qs[0].Weight = 4
	return hic.FrontendConfig{
		Queues: qs, Arbitration: hic.WeightedRoundRobin, MaxInFlight: 2 * tenantsWays,
	}
}

// tenantsPlan stretches the default cast's slices so that together they
// cover 90% of the logical capacity, all preloaded, and derives every
// tenant's seed from the workload seed.
func tenantsPlan(seed int64, logical int) (int, []hic.TenantSpec) {
	specs := exp.DefaultTenants(tenantsOps)
	slice := logical * 9 / 10 / len(specs)
	for i := range specs {
		specs[i].SliceStart = i * slice
		specs[i].SlicePages = slice
		specs[i].Seed = int64(splitmix(uint64(seed)*uint64(len(specs)) + uint64(i)))
	}
	return slice * len(specs), specs
}

// splitmix is the SplitMix64 finaliser: it spreads nearby seeds apart.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
