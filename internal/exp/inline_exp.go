package exp

import (
	"fmt"
	"strings"

	"branchprof/internal/breaks"
	"branchprof/internal/engine"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
)

// InlineRow is the inlining ablation for one run: instructions per
// break with direct calls and returns counted as breaks, under each
// image's own self prediction, for the plain and the inlined
// compilation. The paper's Figure 1 approximates inlining by simply
// not counting call breaks; this experiment performs the inlining and
// measures what actually remains.
type InlineRow struct {
	Program       string
	Dataset       string
	PlainIPB      float64
	InlinedIPB    float64
	PlainCalls    uint64 // direct calls executed
	InlinedCalls  uint64
	PlainInstrs   uint64
	InlinedInstrs uint64
}

// Speedup is the instrs/break improvement from real inlining.
func (r InlineRow) Speedup() float64 {
	if r.PlainIPB == 0 {
		return 0
	}
	return r.InlinedIPB / r.PlainIPB
}

// InlineAblation compiles every workload with and without the
// inliner and measures the first dataset.
func InlineAblation() ([]InlineRow, error) {
	all, outs, err := variantPairs("inline ablation", "inlined", mfc.Options{InlineCalls: true}, vm.Config{})
	if err != nil {
		return nil, err
	}
	pol := breaks.Policy{PredictBranches: true, IncludeDirectCalls: true}
	selfIPB := func(out *engine.Outcome) (float64, error) {
		pred, err := predict.FromProfile(out.Prof, out.Prog.Sites, predict.LoopHeuristic)
		if err != nil {
			return 0, err
		}
		ev, err := predict.Evaluate(pred, out.Prof)
		if err != nil {
			return 0, err
		}
		return breaks.Count(out.Res, ev.Mispredicts, pol).InstrsPerBreak(), nil
	}
	rows := make([]InlineRow, len(all))
	for i, w := range all {
		plain, inl := outs[i][0], outs[i][1]
		plainIPB, err := selfIPB(plain)
		if err != nil {
			return nil, err
		}
		inlIPB, err := selfIPB(inl)
		if err != nil {
			return nil, err
		}
		rows[i] = InlineRow{
			Program: w.Name, Dataset: w.Datasets[0].Name,
			PlainIPB: plainIPB, InlinedIPB: inlIPB,
			PlainCalls: plain.Res.DirectCalls, InlinedCalls: inl.Res.DirectCalls,
			PlainInstrs: plain.Res.Instrs, InlinedInstrs: inl.Res.Instrs,
		}
	}
	return rows, nil
}

// RenderInlineAblation formats the ablation.
func RenderInlineAblation(rows []InlineRow) string {
	var b strings.Builder
	b.WriteString("Extension: inlining ablation (instrs/break with call breaks counted, self prediction)\n")
	fmt.Fprintf(&b, "%-12s %-12s %9s %9s %8s %10s %10s\n",
		"PROGRAM", "DATASET", "PLAIN", "INLINED", "GAIN", "CALLS", "CALLS-INL")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %9.0f %9.0f %7.2fx %10d %10d\n",
			r.Program, r.Dataset, r.PlainIPB, r.InlinedIPB, r.Speedup(),
			r.PlainCalls, r.InlinedCalls)
	}
	return b.String()
}
