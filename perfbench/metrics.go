package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"branchprof/internal/workloads"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract: BENCHMARK.json declares the same names, units
// and directions (TestMetricListsMatchBenchmarkJSON keeps them equal).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced run reports, on every
// workload. A "unit of work" is one full paper regeneration on the
// paper-* workloads and one scripted request round on ingest-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},            // median wall time of a set-up probe process
	{"wall_s", "s", "lower"},             // median wall time of one unit of work
	{"cpu_s", "s", "lower"},              // median process user+sys CPU of one unit of work
	{"peak_rss_mb", "MB", "lower"},       // median per-unit peak RSS
	{"success_ratio", "ratio", "higher"}, // 1 - failed/attempted
	{"profiles_per_s", "1/s", "higher"},  // branch profiles produced (paper) or acknowledged (ingest) per second
}

// examLanes are the exp lanes the paper workloads time, in the order
// cmd/experiments first enters each of them.
var examLanes = []string{
	"table1", "inline", "selects", "collect", "paper_figs", "dynamic", "ipm",
	"h2p", "runlengths", "coverage", "disagree", "hotsites", "traces",
}

// ingestKinds are the ingest-mixed request types, and serveRoutes the
// names their server self-time metrics use, index for index.
var (
	ingestKinds = []string{"single", "batch", "stream", "predict"}
	serveRoutes = []string{"profile", "batch", "stream", "predict"}
)

// perLayer are the metrics every traced run reports, on every
// workload; a layer a workload leaves idle reports 0.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, l := range examLanes {
		add("exp."+l+"_s", "s", "lower")
	}
	add("engine.compiles", "count", "lower")
	add("engine.compile_s", "s", "lower")
	add("engine.runs", "count", "lower")
	add("engine.run_s", "s", "lower")
	add("engine.instrs", "count", "lower")
	add("engine.profile_s", "s", "lower")
	add("engine.mem_hit_ratio", "ratio", "higher")
	add("engine.image_hit_ratio", "ratio", "higher")
	add("vm.minstrs_per_s", "1/s", "higher")
	for _, p := range workloads.Names() {
		add("vm.run_s."+p, "s", "lower")
	}
	for _, r := range serveRoutes {
		add("server.self_ms."+r, "ms", "lower")
	}
	add("server.shed", "count", "lower")
	add("server.errors_5xx", "count", "lower")
	add("store.merge_us_p50", "us", "lower")
	add("store.get_us_p50", "us", "lower")
	add("store.save_ms_p50", "ms", "lower")
	add("store.save_ms_p99", "ms", "lower")
	add("store.saves", "count", "lower")
	add("wal.appends", "count", "lower")
	add("wal.syncs", "count", "lower")
	add("wal.appends_per_sync", "ratio", "higher")
	add("wal.truncated", "count", "lower")
	add("sync.round_ms_p50", "ms", "lower")
	add("sync.pulled", "count", "lower")
	for _, k := range ingestKinds {
		add("ingest."+k+"_p50_ms", "ms", "lower")
		add("ingest."+k+"_p99_ms", "ms", "lower")
	}
	add("trace.overhead_pct", "%", "lower")
	add("trace.spans", "count", "lower")
	return defs
}

// median returns the middle value (mean of the two middle values for
// an even count), 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs, 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it, so a "p99" read from a few
// hundred samples is not one sample's noise; it falls back to the
// maximum when there are too few samples for any of them.
func tailPercentile(xs []float64) (p, v float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 100, percentile(xs, 100)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unit is one measured unit of work.
type unit struct {
	start, end time.Time
	wall, cpu  float64 // seconds; cpu is the process's user+sys time
	rssMB      float64 // peak RSS during the unit; without perUnitRSS, of the process so far
	rate       float64 // the workload's profiles per second
	// steal and ticks are the host CPU time the hypervisor stole and
	// all host CPU time during the unit, in clock ticks.
	steal, ticks float64
}

// meter measures one unit of work.
type meter struct {
	t0     time.Time
	c0     time.Duration
	s0, k0 float64
}

// perUnitRSS records whether the kernel lets this process reset its
// peak-RSS mark (Linux clear_refs "5"); run sets it once.
var perUnitRSS bool

// startUnit resets the peak-RSS mark and reads the clocks.
func startUnit() meter {
	if perUnitRSS {
		os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // probed by run
	}
	s, k := hostTicks()
	return meter{t0: time.Now(), c0: cpuTime(), s0: s, k0: k}
}

// stop ends the unit; profiles is the work it did, for its rate.
func (m meter) stop(profiles float64) unit {
	end := time.Now()
	u := unit{start: m.t0, end: end, wall: end.Sub(m.t0).Seconds(), cpu: (cpuTime() - m.c0).Seconds(), rssMB: peakRSSMB()}
	s, k := hostTicks()
	u.steal, u.ticks = s-m.s0, k-m.k0
	if u.wall > 0 {
		u.rate = profiles / u.wall
	}
	return u
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB,
// 0 if unreadable.
func peakRSSMB() float64 {
	raw, _ := os.ReadFile("/proc/self/status")
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostTicks reads the host's stolen and total CPU time, in clock
// ticks, from the aggregate line of /proc/stat; 0, 0 if unreadable.
func hostTicks() (steal, total float64) {
	raw, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// Stolen time: on a shared host the hypervisor runs other guests on
// this machine's CPUs, for seconds at a time. A round of request/reply
// chains stalls whenever a vCPU is taken away, so while a fifth of the
// host's time is stolen ingest rounds take two to three times longer.
// The round-trip kernel (hostspeed.go) follows the slow stretches but
// samples only every few seconds, so the rounds stolen from are still
// left out. The end-to-end time and rate medians come from the quiet
// units: those during which at most maxSteal of the host's CPU time
// was stolen, and at least the quietest minQuiet share of all units.
const (
	maxSteal = 0.05
	minQuiet = 0.05
)

// quiet picks the units the end-to-end medians come from (see
// maxSteal), quietest first.
func quiet(units []unit) []unit {
	share := func(u unit) float64 {
		if u.ticks == 0 {
			return 0
		}
		return u.steal / u.ticks
	}
	sorted := append([]unit(nil), units...)
	sort.SliceStable(sorted, func(a, b int) bool { return share(sorted[a]) < share(sorted[b]) })
	kept := 0
	for kept < len(sorted) && (share(sorted[kept]) <= maxSteal || float64(kept) < minQuiet*float64(len(units))) {
		kept++
	}
	return sorted[:kept]
}

// reportUnits sets the per-unit end-to-end metrics, the times and
// rates from the quiet units scaled to the reference host speed, and
// records the selection, the scaling and the raw medians in the
// details.
func reportUnits(out *outcome, units []unit, speed *hostSpeed) {
	kept := quiet(units)
	col := func(us []unit, f func(unit) float64) []float64 {
		xs := make([]float64, len(us))
		for i, u := range us {
			xs[i] = f(u)
		}
		return xs
	}
	wallScale := func(u unit) float64 { w, _ := speed.scales(u.start, u.end); return w }
	cpuScale := func(u unit) float64 { _, c := speed.scales(u.start, u.end); return c }
	out.metrics["wall_s"] = median(col(kept, func(u unit) float64 { return u.wall * wallScale(u) }))
	out.metrics["cpu_s"] = median(col(kept, func(u unit) float64 { return u.cpu * cpuScale(u) }))
	// Memory is not slowed by stolen time: its median takes every unit.
	out.metrics["peak_rss_mb"] = median(col(units, func(u unit) float64 { return u.rssMB }))
	out.metrics["profiles_per_s"] = median(col(kept, func(u unit) float64 { return u.rate / wallScale(u) }))
	out.details["raw_wall_s"] = median(col(kept, func(u unit) float64 { return u.wall }))
	out.details["raw_cpu_s"] = median(col(kept, func(u unit) float64 { return u.cpu }))
	out.details["raw_profiles_per_s"] = median(col(kept, func(u unit) float64 { return u.rate }))
	out.details["ref_samples"] = len(speed.samples)
	out.details["ref_mean"] = meanTimes(speed.samples)
	var steal, ticks float64
	for _, u := range units {
		steal, ticks = steal+u.steal, ticks+u.ticks
	}
	out.details["units"] = len(units)
	out.details["quiet_units"] = len(kept)
	out.details["peak_rss_per_unit"] = perUnitRSS
	if ticks > 0 {
		out.details["host_steal_share"] = steal / ticks
	}
	if len(units) <= 64 {
		out.details["wall_s_per_unit"] = col(units, func(u unit) float64 { return u.wall })
		out.details["steal_ticks_per_unit"] = col(units, func(u unit) float64 { return u.steal })
	}
}

// parseProm reads Prometheus text exposition into series → value,
// the series keyed by its full name including labels.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumSeries adds every series whose name starts with prefix and
// contains each of the given label fragments.
func sumSeries(m map[string]float64, prefix string, fragments ...string) float64 {
	var sum float64
next:
	for name, v := range m {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(name, f) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
