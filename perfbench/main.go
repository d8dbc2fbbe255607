// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed wall-clock budget as repeated build→drain cycles
// of the simulator, checks every repeat for correctness, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as a
// JSON object on its last line of output. Run it through run.sh, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload tenants-gc --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// minRepeats is the fewest measured repeats a run reports from, however
// short its budget.
const minRepeats = 3

// warmUpBudget is how long a run repeats the workload before measuring.
// On the 2-CPU virtual machine the benchmark was tuned on, freshly
// touched memory ran slow for about the first second of a process.
const warmUpBudget = 1500 * time.Millisecond

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed (tenant seeds and the scan offset derive from it)")
	seconds := flag.Float64("seconds", 10, "wall-clock measurement budget")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a profiled, span-traced run")
	outDir := flag.String("out", ".bench_build/out", "directory for the CPU profile and span file")
	flag.Parse()

	w, err := workloadByName(*name)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// A rig runs on one goroutine at a time: each coroutine switch hands
	// the processor to the next goroutine. With a second P every switch
	// wakes an idle P instead, which measured ~35% slower on tenants-gc
	// and no steadier, so the benchmark runs on one.
	runtime.GOMAXPROCS(1)

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, budget, *outDir)
	} else {
		res, err = runPlain(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if errors.As(err, &ce) {
			// A wrong answer still reports as a result, marked incorrect.
			res = &result{attempted: max(ce.attempted, 1), failed: ce.failed}
			res.print(os.Stdout, false)
		}
		os.Exit(1)
	}
	res.print(os.Stdout, true)
}

// metric is one reported number with its unit.
type metric struct {
	name, unit string
	value      float64
}

// result is what one run prints.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string // human-readable lines printed before the JSON
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) print(w *os.File, correct bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-26s %18.6f %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(out))
}

// repeatFor runs the workload until the budget is spent (and at least
// minRepeats times), checking each repeat's digest of virtual-clock
// results against the first: one seed must give one outcome.
func repeatFor(w *workload, seed int64, budget time.Duration, tr *tracer, want *[32]byte) ([]*sample, error) {
	var out []*sample
	start := time.Now()
	for len(out) < minRepeats || time.Since(start) < budget {
		s, err := runOnce(w, seed, tr)
		if err == nil && *want != ([32]byte{}) && s.digest != *want {
			err = &checkError{
				err:       fmt.Errorf("virtual-clock results differ from the first repeat at seed %d", seed),
				attempted: s.cmds, failed: s.failed,
			}
		}
		if err != nil {
			var ce *checkError
			if errors.As(err, &ce) {
				for _, prev := range out {
					ce.attempted += prev.cmds
					ce.failed += prev.failed
				}
			}
			return nil, fmt.Errorf("%s repeat %d: %w", w.name, len(out)+1, err)
		}
		if *want == ([32]byte{}) {
			*want = s.digest
		}
		out = append(out, s)
	}
	return out, nil
}

// warmUp repeats the workload unmeasured for warmUpBudget, so lazy
// process set-up (heap growth, first-touch page faults) is not timed.
func warmUp(w *workload, seed int64, want *[32]byte) error {
	_, err := repeatFor(w, seed, warmUpBudget, nil, want)
	return err
}

func runPlain(w *workload, seed int64, budget time.Duration) (*result, error) {
	var want [32]byte
	if err := warmUp(w, seed, &want); err != nil {
		return nil, err
	}
	samples, err := repeatFor(w, seed, budget, nil, &want)
	if err != nil {
		return nil, err
	}
	first := samples[0]
	r := &result{}
	for _, s := range samples {
		r.attempted += s.cmds
		r.failed += s.failed
	}
	wall := func(s *sample) float64 { return s.wall.Seconds() }
	run := func(s *sample) float64 { return s.run.Seconds() }
	setup := func(s *sample) float64 { return s.setup.Seconds() }
	virtual, cmds := sim.Duration(first.virtual).Seconds(), float64(first.cmds)
	tail, tailPct, beyond := tailLatency(first.latencies)
	r.notes = append(r.notes,
		fmt.Sprintf("workload %s  seed %d  repeats %d  commands/repeat %d  GOMAXPROCS %d",
			w.name, seed, len(samples), first.cmds, runtime.GOMAXPROCS(0)),
		fmt.Sprintf("virtual-clock digest %x (identical across repeats)", first.digest[:8]),
		fmt.Sprintf("dev_tail_us is p%s with %d of %d samples beyond it", tailPct, beyond, len(first.latencies)),
		fmt.Sprintf("failed_ratio %.6f (%d of %d)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted),
		fmt.Sprintf("median repeat: rtf %.4f virt-s/s, cmds_per_s %.0f 1/s, setup_s %.6f s",
			virtual/median(samples, wall), cmds/median(samples, run), median(samples, setup)),
	)
	if w.observe {
		r.notes = append(r.notes, fmt.Sprintf("analyze_s %.6f s (fastest analyze.Analyze wall time)",
			fastest(samples, func(s *sample) float64 { return s.analyze.Seconds() })))
	}
	// Host times come from the fastest repeat. Every repeat does the
	// same work (the digest check proves it), so a slower one measured
	// the host, not the program: on the shared 2-vCPU virtual machine
	// the benchmark was tuned on, neighbours' load slows the whole
	// process by up to ~1.8x in episodes of seconds to minutes, while a
	// pure ALU loop stays unaffected. Over five 40 s runs in one such
	// stretch, tenants-gc's fastest-repeat rtf read 13.33-13.46 while
	// its median repeat read 10.38-11.52, and the fastest set-up
	// 1.98-2.05 ms while the median one read 2.39-2.63 ms.
	r.add("rtf", "virt-s/s", virtual/fastest(samples, wall))
	r.add("cmds_per_s", "1/s", cmds/fastest(samples, run))
	r.add("setup_s", "s", fastest(samples, setup))
	r.add("alloc_mb", "MB", median(samples, func(s *sample) float64 { return float64(s.allocBytes) / 1e6 }))
	// The run's peak, not a per-repeat median: how much a repeat's heap
	// peaks depends on when the concurrent collector finishes, and the
	// maximum over the run's repeats settles where a median flips.
	peak, err := peakRSS()
	if err != nil {
		return nil, err
	}
	r.add("peak_rss_mb", "MB", float64(peak)/1e6)
	r.add("dev_mbps", "virt-MB/s", float64(first.dataBytes)/1e6/first.span.Seconds())
	r.add("dev_p50_us", "virt-us", sim.Percentile(first.latencies, 50).Seconds()*1e6)
	r.add("dev_tail_us", "virt-us", tail.Seconds()*1e6)
	return r, nil
}

// runTraced makes the per-layer run: half the budget untraced (the
// baseline for trace.overhead and the wall-time ratios), then half with
// the CPU profiler and the benchmark's spans armed.
func runTraced(w *workload, seed int64, budget time.Duration, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var want [32]byte
	if err := warmUp(w, seed, &want); err != nil {
		return nil, err
	}
	plain, err := repeatFor(w, seed, budget/2, nil, &want)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	prof, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	traced, err := repeatFor(w, seed, budget/2, tr, &want)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return nil, err
	}
	buckets, total, err := attribute(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}

	r := &result{}
	for _, s := range append(plain, traced...) {
		r.attempted += s.cmds
		r.failed += s.failed
	}
	first, c := plain[0], plain[0].counts
	cmds := float64(first.cmds)
	perRepeat := 1 / float64(len(traced))
	// Wall times are the fastest repeat's, as in runPlain.
	pm := func(f func(*sample) float64) float64 { return fastest(plain, f) }
	tm := func(f func(*sample) float64) float64 { return fastest(traced, f) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	self := func(pkg string) float64 { return buckets[pkg] * perRepeat }

	named := map[string]bool{"runtime": true}
	for _, p := range layerPkgs {
		named[p] = true
	}
	var sum, other float64
	var names, shares []string
	for b := range buckets {
		names = append(names, b)
	}
	sort.Strings(names)
	for _, b := range names {
		sum += buckets[b]
		if !named[b] {
			other += buckets[b]
		}
		shares = append(shares, fmt.Sprintf("%s %.1f%%", b, 100*buckets[b]/total))
	}
	if math.Abs(sum-total) > 1e-9*total {
		return nil, fmt.Errorf("profile buckets sum to %v s, profiled total is %v s", sum, total)
	}
	deviceMean, hostMean := meanSeconds(traced[0].device), meanSeconds(first.latencies)
	r.notes = append(r.notes,
		fmt.Sprintf("workload %s  seed %d  untraced repeats %d  traced repeats %d  commands/repeat %d",
			w.name, seed, len(plain), len(traced), first.cmds),
		fmt.Sprintf("profile: %.3f s of samples per traced repeat; shares: %s", total*perRepeat, strings.Join(shares, ", ")),
		fmt.Sprintf("spans and profile written to %s.{spans.jsonl,cpu.pprof}", base),
	)

	r.add("sim.self_s", "s", self("sim"))
	r.add("sim.events", "count", float64(c.Events))
	r.add("sim.events_per_cmd", "count", float64(c.Events)/cmds)
	r.add("sim.ns_per_event", "ns", pm(func(s *sample) float64 { return float64(s.run.Nanoseconds()) / float64(c.Events) }))
	r.add("coro.self_s", "s", self("coro"))
	r.add("core.self_s", "s", self("core"))
	r.add("sched.self_s", "s", self("sched"))
	r.add("core.txns", "count", float64(c.Txns))
	r.add("core.txns_per_cmd", "count", float64(c.Txns)/cmds)
	r.add("core.admission_waits", "count", float64(c.AdmissionWaits))
	r.add("cpumodel.busy_s", "virt-s", c.CPUBusy.Seconds())
	r.add("nand.self_s", "s", self("nand"))
	r.add("nand.reads", "count", float64(c.NANDReads))
	r.add("nand.programs", "count", float64(c.NANDPrograms))
	r.add("nand.erases", "count", float64(c.NANDErases))
	r.add("nand.status_reads_per_cmd", "count", float64(c.StatusReads)/cmds)
	r.add("bus.busy_s", "virt-s", c.BusBusy.Seconds())
	r.add("bus.util", "ratio", ratio(c.BusBusy.Seconds(), float64(c.Channels)*sim.Duration(first.virtual).Seconds()))
	r.add("bus.bytes", "bytes", float64(c.BusBytes))
	r.add("ssd.self_s", "s", self("ssd"))
	r.add("ssd.preload_s", "s", pm(func(s *sample) float64 { return s.preload.Seconds() }))
	r.add("ssd.submit_ns", "ns", tm(func(s *sample) float64 { return float64(s.submitWall.Nanoseconds()) / float64(len(s.device)) }))
	r.add("ssd.gc_cycles", "count", float64(c.SSD.GCCycles))
	r.add("ftl.self_s", "s", self("ftl"))
	r.add("ftl.waf", "ratio", ratio(float64(c.FTLFlash), float64(c.FTLWrites)))
	r.add("ftl.gc_moves", "count", float64(c.GCMove))
	r.add("ftl.map_hit_ratio", "ratio", ratio(float64(c.MapHits), float64(c.MapHits+c.MapMisses)))
	r.add("ftl.map_misses", "count", float64(c.MapMisses))
	r.add("ftl.map_flushes", "count", float64(c.MapFlushes))
	r.add("hic.self_s", "s", self("hic"))
	r.add("hic.dispatched", "count", float64(c.Dispatched))
	r.add("hic.queue_wait_us", "virt-us", (hostMean-deviceMean)*1e6)
	r.add("hic.device_p50_us", "virt-us", sim.Percentile(traced[0].device, 50).Seconds()*1e6)
	r.add("obs.self_s", "s", self("obs"))
	r.add("obs.events", "count", float64(c.ObsEvents))
	r.add("obs.events_per_cmd", "count", float64(c.ObsEvents)/cmds)
	r.add("obs.bytes_per_event", "bytes", ratio(float64(c.ObsBytes), float64(c.ObsEvents)))
	r.add("analyze.self_s", "s", self("analyze"))
	r.add("analyze.ns_per_event", "ns", ratio(pm(func(s *sample) float64 { return float64(s.analyze.Nanoseconds()) }), float64(c.ObsEvents)))
	r.add("analyze_s", "s", pm(func(s *sample) float64 { return s.analyze.Seconds() }))
	r.add("runtime.self_s", "s", self("runtime"))
	r.add("runtime.gc_cycles", "count", median(plain, func(s *sample) float64 { return float64(s.gcCycles) }))
	r.add("runtime.gc_pause_s", "s", median(plain, func(s *sample) float64 { return float64(s.gcPauseNs) / 1e9 }))
	r.add("other.self_s", "s", other*perRepeat)
	r.add("profile.total_s", "s", total*perRepeat)
	r.add("failed_ratio", "ratio", float64(r.failed)/float64(r.attempted))
	r.add("trace.overhead", "ratio", tm(func(s *sample) float64 { return s.wall.Seconds() })/pm(func(s *sample) float64 { return s.wall.Seconds() }))
	return r, nil
}

func meanSeconds(d []sim.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d {
		sum += x.Seconds()
	}
	return sum / float64(len(d))
}

// fastest is the smallest value of f over the repeats.
func fastest(samples []*sample, f func(*sample) float64) float64 {
	v := f(samples[0])
	for _, s := range samples[1:] {
		v = min(v, f(s))
	}
	return v
}

func median(samples []*sample, f func(*sample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tailLatency picks the highest of p99.99, p99.9 and p99 that leaves at
// least ten samples beyond it, and reports which and how many.
// Below 1000 samples it reports p99 with fewer beyond it.
func tailLatency(sorted []sim.Duration) (sim.Duration, string, int) {
	n := len(sorted)
	p, beyond := 0.0, 0
	for _, p = range []float64{99.99, 99.9, 99} {
		if beyond = n - int(math.Ceil(p/100*float64(n))); beyond >= 10 {
			break
		}
	}
	return sim.Percentile(sorted, p), strconv.FormatFloat(p, 'f', -1, 64), beyond
}

// peakRSS reads the process's peak resident set (VmHWM) in bytes.
func peakRSS() (uint64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseUint(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
