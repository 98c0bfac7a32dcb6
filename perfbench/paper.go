package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/exp"
	"branchprof/internal/obs"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

// paperDigest is the SHA-256 of the complete output of
// `go run ./cmd/experiments` with no flags. Every paper-* regeneration
// must reproduce it byte for byte, on either VM backend.
const paperDigest = "bc256509754fe00e12b066acf31ce0f15bebe62bd488855ea9fc22b402fd1347"

// paperWorkload is paper-full, or with interp paper-interp: compiled
// bodies disabled process wide, so every run takes the pre-decoded
// interpreter. Set-up pins the backend and installs a fresh engine.
func paperWorkload(interp bool) workload {
	return workload{
		setup: func(runConfig) error {
			vm.SetCompiledEnabled(!interp)
			exp.SetEngine(engine.New(engine.Options{}))
			return nil
		},
		measure: func(cfg runConfig, speed *hostSpeed) (*outcome, error) {
			vm.SetCompiledEnabled(!interp)
			return measurePaper(cfg, speed)
		},
		trace: func(cfg runConfig) (*outcome, error) {
			vm.SetCompiledEnabled(!interp)
			return tracePaper(cfg)
		},
	}
}

// rendered formats one artifact the way cmd/experiments prints it.
func rendered[T any](rows T, err error, render func(T) string) (string, error) {
	if err != nil {
		return "", err
	}
	return render(rows) + "\n", nil
}

// regenerate is the in-process equivalent of `experiments` with no
// flags: every table, figure and extension lane, printed in the same
// order, measured through eng. When o traces, each lane runs under an
// "exp.<lane>" span beneath the span ctx carries; lanes whose exp
// entry point takes no context leave the engine's spans unparented.
func regenerate(ctx context.Context, eng *engine.Engine, o *obs.Obs) (string, error) {
	exp.SetEngine(eng)
	var s *exp.Suite
	steps := []struct {
		lane string
		run  func(context.Context) (string, error)
	}{
		{"paper_figs", func(context.Context) (string, error) { return exp.RenderTable2(exp.Table2()) + "\n", nil }},
		{"table1", func(context.Context) (string, error) {
			rows, err := exp.Table1()
			return rendered(rows, err, exp.RenderTable1)
		}},
		{"inline", func(context.Context) (string, error) {
			rows, err := exp.InlineAblation()
			return rendered(rows, err, exp.RenderInlineAblation)
		}},
		{"selects", func(context.Context) (string, error) {
			rows, err := exp.SelectStudy()
			return rendered(rows, err, exp.RenderSelectStudy)
		}},
		{"collect", func(ctx context.Context) (string, error) {
			var err error
			s, err = exp.CollectCtx(ctx, eng, exp.CollectOptions{})
			return "", err
		}},
		{"paper_figs", func(context.Context) (string, error) { return paperFigures(s) }},
		{"dynamic", func(context.Context) (string, error) {
			rows, err := exp.StaticVsDynamic(s)
			return rendered(rows, err, exp.RenderStaticVsDynamic)
		}},
		{"ipm", func(context.Context) (string, error) {
			rows, err := exp.InstrsPerMispredict(s)
			return rendered(rows, err, exp.RenderInstrsPerMispredict)
		}},
		{"h2p", func(context.Context) (string, error) {
			rows, err := exp.H2PStudy(s, 5)
			return rendered(rows, err, exp.RenderH2P)
		}},
		{"runlengths", func(context.Context) (string, error) {
			rows, err := exp.RunLengths(s)
			return rendered(rows, err, exp.RenderRunLengths)
		}},
		{"coverage", func(context.Context) (string, error) {
			rows, err := exp.Coverage(s)
			return rendered(rows, err, exp.RenderCoverage)
		}},
		{"disagree", func(context.Context) (string, error) {
			rows, err := exp.DisagreementStudy(s)
			return rendered(rows, err, exp.RenderDisagreement)
		}},
		{"hotsites", func(context.Context) (string, error) {
			rows, err := exp.HotSites(s, 3)
			return rendered(rows, err, exp.RenderHotSites)
		}},
		{"traces", func(context.Context) (string, error) {
			rows, err := exp.TraceStudy(s)
			return rendered(rows, err, exp.RenderTraceStudy)
		}},
	}
	var b strings.Builder
	for _, st := range steps {
		lctx, sp := o.Start(ctx, "exp."+st.lane)
		out, err := st.run(lctx)
		done(sp, err)
		if err != nil {
			return "", fmt.Errorf("lane %s: %w", st.lane, err)
		}
		b.WriteString(out)
	}
	return b.String(), nil
}

// paperFigures renders the paper's own artifacts read off the
// collected suite: Figures 1-3, Table 3 and the taken, combined,
// heuristic, motivation and crossmode comparisons.
func paperFigures(s *exp.Suite) (string, error) {
	var b strings.Builder
	add := func(out string, err error) error {
		b.WriteString(out)
		return err
	}
	b.WriteString(exp.RenderFigure1("Figure 1a (FORTRAN/FP)", exp.Figure1(s, workloads.Fortran)) + "\n")
	b.WriteString(exp.RenderFigure1("Figure 1b (C/Integer)", exp.Figure1(s, workloads.C)) + "\n")
	t3, err := exp.Table3(s)
	if err := add(rendered(t3, err, exp.RenderTable3)); err != nil {
		return "", err
	}
	f2a, err := exp.Figure2(s, []string{"spice2g6"})
	if err := add(rendered(f2a, err, func(r []exp.Fig2Row) string { return exp.RenderFigure2("Figure 2a (spice2g6)", r) })); err != nil {
		return "", err
	}
	f2b, err := exp.Figure2(s, exp.CProgramNames(s))
	if err := add(rendered(f2b, err, func(r []exp.Fig2Row) string { return exp.RenderFigure2("Figure 2b (C/Integer)", r) })); err != nil {
		return "", err
	}
	f3a, err := exp.Figure3(s, []string{"spice2g6"})
	if err := add(rendered(f3a, err, func(r []exp.Fig3Row) string { return exp.RenderFigure3("Figure 3a (spice2g6)", r) })); err != nil {
		return "", err
	}
	f3b, err := exp.Figure3(s, exp.CProgramNames(s))
	if err := add(rendered(f3b, err, func(r []exp.Fig3Row) string { return exp.RenderFigure3("Figure 3b (C/Integer)", r) })); err != nil {
		return "", err
	}
	b.WriteString(exp.RenderTaken(exp.TakenConstancy(s)) + "\n")
	comb, err := exp.CombinedComparison(s)
	if err := add(rendered(comb, err, exp.RenderCombined)); err != nil {
		return "", err
	}
	heur, err := exp.HeuristicComparison(s)
	if err := add(rendered(heur, err, exp.RenderHeuristic)); err != nil {
		return "", err
	}
	mot, err := exp.Motivation(s)
	if err := add(rendered(mot, err, exp.RenderMotivation)); err != nil {
		return "", err
	}
	cross, err := exp.CrossMode(s)
	if err := add(rendered(cross, err, exp.RenderCrossMode)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// iteration is one regeneration: its engine and its measurements.
type iteration struct {
	eng *engine.Engine
	unit
}

// paperIteration runs one regeneration on a fresh engine (no disk
// cache, default worker pool) and checks its output digest. It starts
// from a collected heap returned to the OS, as a regeneration in a
// fresh process would, so neither the previous iteration's garbage
// nor its memory is charged to this one.
func paperIteration(ctx context.Context, o *obs.Obs) (it iteration, err error) {
	it.eng = engine.New(engine.Options{Obs: o})
	debug.FreeOSMemory()
	m := startUnit()
	out, err := regenerate(ctx, it.eng, o)
	it.unit = m.stop(float64(it.eng.Stats().Profiles))
	if err != nil {
		return it, err
	}
	sum := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(sum[:]); got != paperDigest {
		return it, fmt.Errorf("output digest %s, want %s", got, paperDigest)
	}
	return it, nil
}

// measurePaper repeats regenerations until the run's time is spent
// (at least one) and reports medians over the quiet ones, each
// regeneration between two host-speed samples.
func measurePaper(cfg runConfig, speed *hostSpeed) (*outcome, error) {
	out := newOutcome()
	var units []unit
	start := time.Now()
	for out.attempted == 0 || time.Since(start) < cfg.seconds {
		if err := speed.between(); err != nil {
			return nil, err
		}
		it, err := paperIteration(context.Background(), nil)
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s regeneration %d: %v\n", cfg.workload, out.attempted, err)
		}
		units = append(units, it.unit)
	}
	if err := speed.sample(); err != nil {
		return nil, err
	}
	reportUnits(out, units, speed)
	return out, nil
}

// tracePaper is the traced run: an untraced regeneration, a traced
// one, and a second untraced one, each under a "bench.iteration" root
// span. Per-layer metrics come from the traced iteration's spans and
// its engine; the tracing overhead compares the traced iteration with
// the mean of the untraced pair around it.
func tracePaper(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var buf bytes.Buffer
	bench := &obs.Obs{Tr: obs.NewTracer(&buf, nil)}
	var traced *engine.Engine
	for _, on := range []bool{false, true, false} {
		ctx, root := bench.Start(context.Background(), "bench.iteration",
			obs.A("workload", cfg.workload), obs.A("traced", on))
		var o *obs.Obs
		if on {
			o = bench
		}
		it, err := paperIteration(ctx, o)
		done(root, err)
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s traced-run regeneration: %v\n", cfg.workload, err)
		}
		if on {
			traced = it.eng
		}
	}
	if err := bench.Tr.Err(); err != nil {
		return nil, err
	}
	log, err := writeSpanLog(buf.Bytes(), cfg.path("spans.jsonl"), cfg.path("chrome.json"))
	if err != nil {
		return nil, err
	}
	m := out.metrics
	for _, l := range examLanes {
		m["exp."+l+"_s"] = log.sum(log.match("exp."+l, nil))
	}
	var reg bytes.Buffer
	if err := traced.Registry().WritePrometheus(&reg); err != nil {
		return nil, fmt.Errorf("reading engine metrics: %w", err)
	}
	engineMetrics(m, []engine.Stats{traced.Stats()}, parseProm(reg.String()))
	for _, p := range workloads.Names() {
		m["vm.run_s."+p] = log.sum(log.match("run", map[string]any{"program": p}))
	}
	m["trace.overhead_pct"] = overheadPct(log, "bench.iteration")
	m["trace.spans"] = float64(len(log.recs))
	return out, nil
}

// engineMetrics fills the engine and VM layer metrics from the stats
// of every engine the traced work ran on and their metrics registries.
func engineMetrics(m map[string]float64, stats []engine.Stats, prom map[string]float64) {
	var st engine.Stats
	for _, s := range stats {
		st.Compiles += s.Compiles
		st.CompileWall += s.CompileWall
		st.Runs += s.Runs
		st.RunWall += s.RunWall
		st.Instrs += s.Instrs
		st.ProfileWall += s.ProfileWall
		st.MemHits += s.MemHits
		st.MemMisses += s.MemMisses
	}
	m["engine.compiles"] = float64(st.Compiles)
	m["engine.compile_s"] = st.CompileWall.Seconds()
	m["engine.runs"] = float64(st.Runs)
	m["engine.run_s"] = st.RunWall.Seconds()
	m["engine.instrs"] = float64(st.Instrs)
	m["engine.profile_s"] = st.ProfileWall.Seconds()
	m["engine.mem_hit_ratio"] = ratio(float64(st.MemHits), float64(st.MemMisses))
	m["engine.image_hit_ratio"] = ratio(sumSeries(prom, "branchprof_engine_image_hits"),
		sumSeries(prom, "branchprof_engine_image_misses"))
	m["vm.minstrs_per_s"] = st.InstrsPerSec() / 1e6
}

// overheadPct compares the traced root spans named root with the
// untraced ones (attribute "traced"), as a percentage of the untraced
// median.
func overheadPct(log *spanLog, root string) float64 {
	on := median(log.durations(log.match(root, map[string]any{"traced": true}), time.Second))
	off := median(log.durations(log.match(root, map[string]any{"traced": false}), time.Second))
	if off == 0 {
		return 0
	}
	return (on - off) / off * 100
}
