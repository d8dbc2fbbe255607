package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/hic"
	"repro/internal/sim"
)

// span is one benchmark-side interval. Phase spans time calls into a
// layer's public entry point; command spans follow one host command
// from dispatch to its Done callback. Spans of one command share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	// Wall-clock bounds in ns since the run started; a command span's
	// wall duration is its Submit call alone.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Virtual-clock bounds in ps (command spans only).
	VStartPs int64 `json:"vstart_ps,omitempty"`
	VEndPs   int64 `json:"vend_ps,omitempty"`
}

// tracer keeps the traced repeats' spans in memory until the run ends.
// It keeps the phase spans of every traced repeat and the command spans
// of the latest one, which bounds memory at one repeat's command count.
type tracer struct {
	epoch  time.Time
	nextID uint64
	phases []span
	cmds   []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(list *[]span, sp span) uint64 {
	t.nextID++
	sp.ID = t.nextID
	*list = append(*list, sp)
	return sp.ID
}

func (t *tracer) phase(name string, parent uint64, start time.Time, d time.Duration) uint64 {
	ns := start.Sub(t.epoch).Nanoseconds()
	return t.add(&t.phases, span{Name: name, Parent: parent, StartNs: ns, EndNs: ns + d.Nanoseconds()})
}

// record turns one traced repeat's phase timings and command spans into
// spans. The phases run back to back from t0 in the order runOnce calls
// them.
func (t *tracer) record(s *sample, t0 time.Time, cs *cmdSpans) {
	total := s.wall + s.analyze + s.verify
	root := t.phase("repeat", 0, t0, total)
	at := t0
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"ssd.Build", s.build}, {"ssd.Preload", s.preload}, {"hic.NewFrontend", s.frontend},
		{"hic.RunTenants", s.run - s.rigRun}, {"ssd.Rig.Run", s.rigRun},
		{"analyze.Analyze", s.analyze}, {"verify", s.verify},
	} {
		if p.d == 0 && p.name == "analyze.Analyze" {
			continue
		}
		t.phase(p.name, root, at, p.d)
		at = at.Add(p.d)
	}
	t.cmds = t.cmds[:0]
	for i, c := range cs.cmds {
		ns := c.submitAt.Sub(t.epoch).Nanoseconds()
		t.add(&t.cmds, span{
			Name: "ssd.Submit", Parent: root, Req: uint64(i + 1),
			StartNs: ns, EndNs: ns + c.submitWall.Nanoseconds(),
			VStartPs: int64(c.dispatched), VEndPs: int64(c.done),
		})
	}
}

// write stores every kept span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, list := range [][]span{t.phases, t.cmds} {
		for _, sp := range list {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdSpans is a hic.Submitter between the frontend and the SSD. It
// times each Submit call and records each command's dispatch→Done
// virtual latency. Completion slots are pooled, so it allocates only
// its growing span list.
type cmdSpans struct {
	k    *sim.Kernel
	next hic.Submitter
	cmds []cmdSpan
	free []*cmdSlot
	wall time.Duration // summed Submit wall time
}

type cmdSpan struct {
	submitAt         time.Time
	submitWall       time.Duration
	dispatched, done sim.Time
}

type cmdSlot struct {
	c    *cmdSpans
	idx  int
	orig func(error)
	done func(error)
}

func (c *cmdSpans) Submit(cmd hic.Command) {
	var sl *cmdSlot
	if n := len(c.free); n > 0 {
		sl = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		sl = &cmdSlot{c: c}
		sl.done = sl.complete
	}
	sl.idx, sl.orig = len(c.cmds), cmd.Done
	c.cmds = append(c.cmds, cmdSpan{dispatched: c.k.Now()})
	cmd.Done = sl.done
	idx := sl.idx // sl may be recycled if the command completes inside Submit
	start := time.Now()
	c.next.Submit(cmd)
	d := time.Since(start)
	c.cmds[idx].submitAt, c.cmds[idx].submitWall = start, d
	c.wall += d
}

func (sl *cmdSlot) complete(err error) {
	c := sl.c
	c.cmds[sl.idx].done = c.k.Now()
	orig := sl.orig
	sl.orig = nil
	c.free = append(c.free, sl)
	if orig != nil {
		orig(err)
	}
}

// deviceLatencies returns every command's dispatch→Done latency, sorted.
func (c *cmdSpans) deviceLatencies() []sim.Duration {
	out := make([]sim.Duration, len(c.cmds))
	for i, cmd := range c.cmds {
		out[i] = cmd.done.Sub(cmd.dispatched)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// layerPkgs are the repro/internal packages the per-layer report names
// one by one; every other package's self time is summed into "other".
var layerPkgs = []string{"sim", "coro", "core", "sched", "nand", "ssd", "ftl", "hic", "obs", "analyze"}

var repoFrame = regexp.MustCompile(`^(?:repro/internal/([a-z0-9_]+)|(repro/|main\.))`)

// attribute groups a CPU profile's samples by the innermost repository
// frame of each stack, using `go tool pprof -traces`. Samples labelled
// phase=verify (the benchmark's own correctness checks) are left out.
// It returns seconds per bucket and the profiled total. A bucket is a
// repro/internal package name, "harness" for the benchmark's own code
// and the repository's other packages, or "runtime" for stacks with no
// repository frame at all (GC workers, the scheduler).
func attribute(profile string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-tagignore=phase=verify", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces reads pprof's -traces text: stacks separated by dashed
// lines, each starting with the sample value followed by the leaf
// frame, then one caller frame per line. Label lines between the
// separator and the value line are skipped.
func parseTraces(text string) (map[string]float64, float64, error) {
	buckets := map[string]float64{}
	total := 0.0
	var value float64
	inStack, bucketed := false, false
	flush := func() {
		if inStack && !bucketed {
			buckets["runtime"] += value
		}
		inStack, bucketed = false, false
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inStack {
			v, ok := parseDuration(fields[0])
			if !ok || len(fields) < 2 {
				continue // header and label lines
			}
			value, inStack = v, true
			total += v
			frame = fields[1]
		}
		if bucketed {
			continue
		}
		if m := repoFrame.FindStringSubmatch(frame); m != nil {
			bucketed = true
			if m[1] != "" {
				buckets[m[1]] += value
			} else {
				buckets["harness"] += value
			}
		}
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("go tool pprof: profile holds no samples")
	}
	return buckets, total, nil
}

// parseDuration reads a pprof sample value such as "10ms" or "1.50s"
// into seconds.
func parseDuration(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}
