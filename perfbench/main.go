// Command perfbench is branchprof's benchmark: one process that drives
// the repository's layers through their public functions and reports
// end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs). perfbench/run.py builds and runs it from the repository root:
//
//	python3 perfbench/run.py --workload paper-full --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. The line before it
// records the run's provenance. See perfbench/README.md for the
// workloads, the metrics and the layer each metric attributes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workload is one benchmark workload: its set-up (timed by probe
// processes), its measured run and its traced run. waits marks a
// workload whose units wait on request/reply chains: its wall times
// and rates scale by the round-trip kernel (hostspeed.go).
type workload struct {
	waits   bool
	setup   func(runConfig) error
	measure func(runConfig, *hostSpeed) (*outcome, error)
	trace   func(runConfig) (*outcome, error)
}

var workloadTable = map[string]workload{
	"paper-full":   paperWorkload(false),
	"paper-interp": paperWorkload(true),
	"ingest-mixed": {waits: true, setup: ingestSetup, measure: measureIngest, trace: traceIngest},
}

// setupProbes is how many set-up probe processes a run times; it
// reports their median.
const setupProbes = 51

// outDir holds everything a run writes; the default is inside the
// checkout.
var outDir = filepath.Join(".bench_build", "perfbench")

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// path names one of the run's output files.
func (c runConfig) path(suffix string) string {
	t := 0
	if c.trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", c.workload, c.seed, t, suffix))
}

// workDir names a scratch directory for one cluster of this process.
func (c runConfig) workDir(name string) string {
	return filepath.Join(outDir, "work", fmt.Sprintf("%s-%d-%s", c.workload, os.Getpid(), name))
}

// outcome is a workload's measured result.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	details           map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]float64), details: make(map[string]any)}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-full, paper-interp or ingest-mixed")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 30, "measured time of one run, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		probe   = flag.Bool("probe", false, "run the workload's set-up once and exit (timed by the parent run)")
	)
	flag.StringVar(&outDir, "out", outDir, "directory for results, span logs and scratch stores")
	flag.Parse()
	w, ok := workloadTable[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper-full|paper-interp|ingest-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := run(w, cfg, *probe, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w workload, cfg runConfig, probe bool, stdout io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if probe {
		return w.setup(cfg)
	}
	perUnitRSS = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	prov := provenance(cfg)
	var out *outcome
	var err error
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
		out, err = w.trace(cfg)
	} else {
		speed := &hostSpeed{waits: w.waits}
		defer speed.close()
		var setup float64
		if setup, err = timeSetup(cfg, speed); err != nil {
			return err
		}
		if out, err = w.measure(cfg, speed); err != nil {
			return err
		}
		out.metrics["setup_s"] = setup
		out.metrics["success_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	}
	if err != nil {
		return err
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !cfg.trace {
			return fmt.Errorf("workload reported no %s", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	record, err := json.MarshalIndent(map[string]any{
		"provenance": prov, "result": res, "details": out.details,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.path("json"), append(record, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", line, last)
	return err
}

// timeSetup runs the workload's set-up in setupProbes fresh processes
// of this binary and returns the median wall time, process start and
// package initialization included — set-up work hidden in an init
// function shows here. The median is scaled to the reference host
// speed by kernel samples taken just before and after the probes.
func timeSetup(cfg runConfig, speed *hostSpeed) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	if err := speed.sample(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe", "--workload", cfg.workload, "--seed", fmt.Sprint(cfg.seed), "--out", outDir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	end := time.Now()
	if err := speed.sample(); err != nil {
		return 0, err
	}
	scale, _ := speed.scales(start, end)
	return median(times) * scale, nil
}

// provenance records where and from what a result came.
func provenance(cfg runConfig) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"seed":       cfg.seed,
		"workload":   cfg.workload,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
