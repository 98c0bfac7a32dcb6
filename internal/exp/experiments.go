package exp

import (
	"bytes"
	"fmt"
	"math"

	"branchprof/internal/breaks"
	"branchprof/internal/engine"
	"branchprof/internal/ifprob"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
	"branchprof/internal/workloads"
)

// ipb evaluates a prediction against the run and returns instructions
// per break (mispredicted branches + unavoidable transfers).
func ipb(r *Run, pr *predict.Prediction) (float64, error) {
	v, _, err := breaks.WithPrediction(r.Res, r.Prof, pr)
	return v, err
}

// pctOf is v/self as a fraction, defined at the +Inf sentinel a
// break-free run produces (breaks.InstrsPerBreak): when both
// predictor and self are break-free the predictor is perfect (1);
// a finite predictor against an infinite self contributes 0 rather
// than NaN/Inf reaching a report writer.
func pctOf(v, self float64) float64 {
	if math.IsInf(self, 1) {
		if math.IsInf(v, 1) {
			return 1
		}
		return 0
	}
	return v / self
}

// selfPrediction is the oracle: the run predicts itself.
func selfPrediction(p *ProgramRuns, r *Run) (*predict.Prediction, error) {
	return predict.FromProfile(r.Prof, p.Prog.Sites, predict.LoopHeuristic)
}

// ---- Table 1: dynamically dead code ----

// DeadCodeRow is one Table 1 entry: how much dynamic execution the
// compiler's dead-branch elimination would have removed — code the
// paper (and we) must leave in to keep branch numbering in sync.
type DeadCodeRow struct {
	Program string
	Dataset string
	Plain   uint64 // instructions with dead branches left in
	DCE     uint64 // instructions with dead-branch elimination on
	DeadPct float64
	// OutputsEqual confirms the two compilations behaved identically —
	// the paper's premise that the dead code "always goes in one
	// direction" and never changes results.
	OutputsEqual bool
}

// variantPairs measures every registered workload's first dataset
// twice through the package engine: plain, and compiled under opts
// and run under cfg. Each (workload, variant) is its own cell on the
// engine's worker pool, so a slow variant never queues behind its
// plain sibling. Outcomes land in preassigned slots, and the first
// error in cell order names the first failing workload in registry
// order, exactly as a serial loop would report it.
func variantPairs(lane, variant string, opts mfc.Options, cfg vm.Config) ([]*workloads.Workload, [][2]*engine.Outcome, error) {
	eng := Engine()
	all := workloads.All()
	outs := make([][2]*engine.Outcome, len(all))
	err := eng.Parallel(2*len(all), func(c int) error {
		w, v := all[c/2], c%2
		ds := w.Datasets[0]
		spec := engine.Spec{Name: w.Name, Source: w.Source, Dataset: ds.Name, Input: ds.Gen()}
		what := w.Name
		if v == 1 {
			spec.Options, spec.Config = opts, cfg
			what += " (" + variant + ")"
		}
		out, err := eng.Execute(spec)
		if err != nil {
			return fmt.Errorf("exp: %s measuring %s: %w", lane, what, err)
		}
		outs[c/2][v] = out
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return all, outs, nil
}

// Table1 measures each workload's first dataset under both compiler
// configurations (the paper's double compile: once plain, once with
// dead-branch elimination). Both measurements route through the
// engine, so repeated table generations — and the plain half, which
// the suite collection also needs — are served from cache.
func Table1() ([]DeadCodeRow, error) {
	all, outs, err := variantPairs("table1", "DCE", mfc.Options{DeadBranchElim: true}, vm.Config{})
	if err != nil {
		return nil, err
	}
	rows := make([]DeadCodeRow, len(all))
	for i, w := range all {
		plain, dce := outs[i][0], outs[i][1]
		dead := 0.0
		if plain.Res.Instrs > 0 && dce.Res.Instrs < plain.Res.Instrs {
			dead = 1 - float64(dce.Res.Instrs)/float64(plain.Res.Instrs)
		}
		rows[i] = DeadCodeRow{
			Program: w.Name, Dataset: w.Datasets[0].Name,
			Plain: plain.Res.Instrs, DCE: dce.Res.Instrs, DeadPct: dead,
			OutputsEqual: bytes.Equal(plain.Res.Output, dce.Res.Output) && plain.Res.ExitCode == dce.Res.ExitCode,
		}
	}
	return rows, nil
}

// ---- Table 2: the program sample base ----

// InventoryRow describes one workload for the Table 2 report.
type InventoryRow struct {
	Program  string
	Class    string
	Desc     string
	Datasets []string
}

// Table2 lists the sample base.
func Table2() []InventoryRow {
	var rows []InventoryRow
	for _, w := range workloads.All() {
		r := InventoryRow{Program: w.Name, Class: w.Lang.String(), Desc: w.Desc}
		for _, ds := range w.Datasets {
			r.Datasets = append(r.Datasets, ds.Name)
		}
		rows = append(rows, r)
	}
	return rows
}

// ---- Table 3: FORTRAN programs with little dataset variability ----

// table3Programs is the fixed set the paper lists.
var table3Programs = []string{"tomcatv", "matrix300", "nasa7", "fpppp", "lfk", "doduc"}

// Table3Row is instructions per break under the best possible (self)
// prediction.
type Table3Row struct {
	Program        string
	Dataset        string
	InstrsPerBreak float64
}

// Table3 computes the self-predicted instructions per break for the
// low-variability FORTRAN programs.
func Table3(s *Suite) ([]Table3Row, error) {
	defer s.span("predict.table3").End()
	var rows []Table3Row
	for _, name := range table3Programs {
		p, err := s.program(name)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue
		}
		for _, r := range p.Runs {
			pr, err := selfPrediction(p, r)
			if err != nil {
				return nil, err
			}
			v, err := ipb(r, pr)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{Program: name, Dataset: r.Dataset, InstrsPerBreak: v})
		}
	}
	return rows, nil
}

// ---- Figure 1: instructions per break with no prediction ----

// Fig1Row reports breaks with every conditional branch counted: the
// black bar excludes direct call/return breaks, the white bar
// includes them.
type Fig1Row struct {
	Program   string
	Dataset   string
	NoCalls   float64 // black bar
	WithCalls float64 // white bar
}

// Figure1 computes the unpredicted break densities for one language
// class.
func Figure1(s *Suite, lang workloads.Lang) []Fig1Row {
	defer s.span("predict.figure1").End()
	var rows []Fig1Row
	for _, p := range s.Programs {
		if p.Workload.Lang != lang {
			continue
		}
		for _, r := range p.Runs {
			rows = append(rows, Fig1Row{
				Program:   p.Workload.Name,
				Dataset:   r.Dataset,
				NoCalls:   breaks.Unpredicted(r.Res, false),
				WithCalls: breaks.Unpredicted(r.Res, true),
			})
		}
	}
	return rows
}

// ---- Figure 2: best possible vs sum-of-others prediction ----

// Fig2Row compares the self oracle (black bar) against the scaled sum
// of all other datasets (white bar), in instructions per mispredicted
// break.
type Fig2Row struct {
	Program   string
	Dataset   string
	Self      float64
	Others    float64
	SelfPct   float64 // percent branches correct under self
	OthersPct float64 // percent branches correct under others
}

// Figure2 runs the comparison for the named programs (the paper shows
// spice2g6 in 2a and the C programs in 2b). Programs with a single
// dataset are skipped — there are no "other datasets" to sum.
func Figure2(s *Suite, programs []string) ([]Fig2Row, error) {
	defer s.span("predict.figure2").End()
	var rows []Fig2Row
	for _, name := range programs {
		p, err := s.program(name)
		if err != nil {
			return nil, err
		}
		if p == nil || !p.Multi() {
			continue
		}
		for i, r := range p.Runs {
			selfPred, err := selfPrediction(p, r)
			if err != nil {
				return nil, err
			}
			otherPred, err := predict.Combine(p.OtherProfiles(i), predict.Scaled, p.Prog.Sites, predict.LoopHeuristic)
			if err != nil {
				return nil, err
			}
			selfIPB, err := ipb(r, selfPred)
			if err != nil {
				return nil, err
			}
			otherIPB, err := ipb(r, otherPred)
			if err != nil {
				return nil, err
			}
			selfEval, err := predict.Evaluate(selfPred, r.Prof)
			if err != nil {
				return nil, err
			}
			otherEval, err := predict.Evaluate(otherPred, r.Prof)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig2Row{
				Program: name, Dataset: r.Dataset,
				Self: selfIPB, Others: otherIPB,
				SelfPct:   selfEval.PercentCorrect(),
				OthersPct: otherEval.PercentCorrect(),
			})
		}
	}
	return rows, nil
}

// CProgramNames returns the multi-dataset C-class programs in report
// order (the population of figures 2b and 3b).
func CProgramNames(s *Suite) []string {
	var names []string
	for _, p := range s.Programs {
		if p.Workload.Lang == workloads.C && p.Multi() {
			names = append(names, p.Workload.Name)
		}
	}
	return names
}

// ---- Figure 3: best and worst single-dataset predictors ----

// Fig3Row reports, for each target dataset, how close the best and
// worst other single dataset come to the self oracle (as percentages
// of the self instructions-per-break).
type Fig3Row struct {
	Program  string
	Dataset  string
	SelfIPB  float64
	BestPct  float64
	BestDS   string
	WorstPct float64
	WorstDS  string
}

// Figure3 computes the pairwise prediction matrix for the named
// programs.
func Figure3(s *Suite, programs []string) ([]Fig3Row, error) {
	defer s.span("predict.figure3").End()
	var rows []Fig3Row
	for _, name := range programs {
		p, err := s.program(name)
		if err != nil {
			return nil, err
		}
		if p == nil || !p.Multi() {
			continue
		}
		for i, r := range p.Runs {
			selfPred, err := selfPrediction(p, r)
			if err != nil {
				return nil, err
			}
			selfIPB, err := ipb(r, selfPred)
			if err != nil {
				return nil, err
			}
			row := Fig3Row{Program: name, Dataset: r.Dataset, SelfIPB: selfIPB, BestPct: -1, WorstPct: -1}
			for j, other := range p.Runs {
				if j == i {
					continue
				}
				pr, err := predict.FromProfile(other.Prof, p.Prog.Sites, predict.LoopHeuristic)
				if err != nil {
					return nil, err
				}
				v, err := ipb(r, pr)
				if err != nil {
					return nil, err
				}
				pct := 100 * pctOf(v, selfIPB)
				if row.BestPct < 0 || pct > row.BestPct {
					row.BestPct, row.BestDS = pct, other.Dataset
				}
				if row.WorstPct < 0 || pct < row.WorstPct {
					row.WorstPct, row.WorstDS = pct, other.Dataset
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---- Informal observation: percent taken as a program constant ----

// TakenRow is the per-program spread of the percent-taken measure.
type TakenRow struct {
	Program string
	MinPct  float64
	MinDS   string
	MaxPct  float64
	MaxDS   string
}

// Spread is the max-min difference in percentage points.
func (t TakenRow) Spread() float64 { return 100 * (t.MaxPct - t.MinPct) }

// TakenConstancy measures percent-taken across every multi-dataset
// program.
func TakenConstancy(s *Suite) []TakenRow {
	var rows []TakenRow
	for _, p := range s.Programs {
		if !p.Multi() {
			continue
		}
		row := TakenRow{Program: p.Workload.Name, MinPct: 2}
		for _, r := range p.Runs {
			pct := r.Prof.PercentTaken()
			if pct < row.MinPct {
				row.MinPct, row.MinDS = pct, r.Dataset
			}
			if pct > row.MaxPct {
				row.MaxPct, row.MaxDS = pct, r.Dataset
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ---- Informal observation: scaled vs unscaled vs polling ----

// CombinedRow compares the three sum-of-others combination modes on
// one target dataset, in instructions per break.
type CombinedRow struct {
	Program  string
	Dataset  string
	Scaled   float64
	Unscaled float64
	Polling  float64
}

// CombinedComparison evaluates every combination mode everywhere.
func CombinedComparison(s *Suite) ([]CombinedRow, error) {
	defer s.span("predict.combined").End()
	var rows []CombinedRow
	for _, p := range s.Programs {
		if !p.Multi() {
			continue
		}
		for i, r := range p.Runs {
			row := CombinedRow{Program: p.Workload.Name, Dataset: r.Dataset}
			for _, mode := range []predict.CombineMode{predict.Scaled, predict.Unscaled, predict.Polling} {
				pr, err := predict.Combine(p.OtherProfiles(i), mode, p.Prog.Sites, predict.LoopHeuristic)
				if err != nil {
					return nil, err
				}
				v, err := ipb(r, pr)
				if err != nil {
					return nil, err
				}
				switch mode {
				case predict.Scaled:
					row.Scaled = v
				case predict.Unscaled:
					row.Unscaled = v
				case predict.Polling:
					row.Polling = v
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---- Informal observation: simple heuristics lose about 2x ----

// HeuristicRow compares profile feedback against static heuristics on
// one dataset, in instructions per break.
type HeuristicRow struct {
	Program     string
	Dataset     string
	Profile     float64 // scaled sum of other datasets (self when only one)
	LoopHeur    float64
	AlwaysTaken float64
	AlwaysNot   float64
}

// Factor is how many times better profile feedback is than the loop
// heuristic.
func (h HeuristicRow) Factor() float64 {
	if h.LoopHeur == 0 {
		return 0
	}
	// A zero-branch run makes both sides +Inf; report the ratio as 1
	// (equally perfect) instead of NaN.
	return pctOf(h.Profile, h.LoopHeur)
}

// HeuristicComparison evaluates heuristic predictors everywhere.
func HeuristicComparison(s *Suite) ([]HeuristicRow, error) {
	defer s.span("predict.heuristics").End()
	var rows []HeuristicRow
	for _, p := range s.Programs {
		for i, r := range p.Runs {
			var profPred *predict.Prediction
			var err error
			if p.Multi() {
				profPred, err = predict.Combine(p.OtherProfiles(i), predict.Scaled, p.Prog.Sites, predict.LoopHeuristic)
			} else {
				profPred, err = selfPrediction(p, r)
			}
			if err != nil {
				return nil, err
			}
			row := HeuristicRow{Program: p.Workload.Name, Dataset: r.Dataset}
			if row.Profile, err = ipb(r, profPred); err != nil {
				return nil, err
			}
			for _, h := range []struct {
				heur predict.Heuristic
				dst  *float64
			}{
				{predict.LoopHeuristic, &row.LoopHeur},
				{predict.AlwaysTaken, &row.AlwaysTaken},
				{predict.AlwaysNotTaken, &row.AlwaysNot},
			} {
				pr := predict.FromHeuristic(p.Prog.Sites, h.heur)
				if *h.dst, err = ipb(r, pr); err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ---- Section 2 motivation: fpppp vs li ----

// MotivationRow reproduces the paper's opening observation: fpppp and
// li have nearly the same percent-correct, but wildly different
// branch densities, so percent-correct is the wrong measure.
type MotivationRow struct {
	Program          string
	Dataset          string
	PctCorrect       float64 // self prediction
	InstrsPerBranch  float64 // branch density
	InstrsPerMispred float64 // the measure that separates them
}

// Motivation computes the fpppp/li contrast.
func Motivation(s *Suite) ([]MotivationRow, error) {
	var rows []MotivationRow
	for _, name := range []string{"fpppp", "li"} {
		p, err := s.program(name)
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue
		}
		r := p.Runs[0]
		pr, err := selfPrediction(p, r)
		if err != nil {
			return nil, err
		}
		ev, err := predict.Evaluate(pr, r.Prof)
		if err != nil {
			return nil, err
		}
		v, err := ipb(r, pr)
		if err != nil {
			return nil, err
		}
		density := float64(r.Res.Instrs)
		if cb := r.Res.CondBranches(); cb > 0 {
			density /= float64(cb)
		}
		rows = append(rows, MotivationRow{
			Program: name, Dataset: r.Dataset,
			PctCorrect:       ev.PercentCorrect(),
			InstrsPerBranch:  density,
			InstrsPerMispred: v,
		})
	}
	return rows, nil
}

// CrossModeCheck reproduces the compress/uncompress observation: the
// two modes of one binary do not predict each other. It returns
// instructions-per-break for compress's first dataset predicted by
// itself, by another compress dataset, and by the matching uncompress
// run of a different program image — since compress and uncompress
// here are separate registrations of the same source, we evaluate the
// uncompress profile against the compress run directly (site tables
// are identical).
type CrossModeRow struct {
	Target    string
	Predictor string
	IPB       float64
}

// CrossMode measures compress predicted by compress vs by uncompress.
// On a partial suite missing either mode (or the specific datasets the
// comparison is built on), the experiment is skipped with no rows.
func CrossMode(s *Suite) ([]CrossModeRow, error) {
	cp, err := s.program("compress")
	if err != nil {
		return nil, err
	}
	up, err := s.program("uncompress")
	if err != nil {
		return nil, err
	}
	if cp == nil || up == nil {
		return nil, nil
	}
	if s.Partial() && (len(cp.Runs) < 3 || len(up.Runs) < 1) {
		return nil, nil
	}
	target := cp.Runs[0]
	var rows []CrossModeRow
	add := func(label string, prof *ifprob.Profile) error {
		pr, err := predict.FromProfile(prof, cp.Prog.Sites, predict.LoopHeuristic)
		if err != nil {
			return err
		}
		v, err := ipb(target, pr)
		if err != nil {
			return err
		}
		rows = append(rows, CrossModeRow{Target: "compress/" + target.Dataset, Predictor: label, IPB: v})
		return nil
	}
	if err := add("self", target.Prof); err != nil {
		return nil, err
	}
	if err := add("compress/"+cp.Runs[2].Dataset, cp.Runs[2].Prof); err != nil {
		return nil, err
	}
	// The uncompress profile comes from the same source compiled under
	// the same options, so its site table lines up.
	uprof := up.Runs[0].Prof.Clone()
	uprof.Program = "compress"
	if err := add("uncompress/"+up.Runs[0].Dataset, uprof); err != nil {
		return nil, err
	}
	return rows, nil
}
