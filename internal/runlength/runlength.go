// Package runlength measures the distribution of instruction-run
// lengths between breaks in control — the paper's observation that
// "the distribution of runs of instructions between mispredicted
// branches will not be constant ... far more ILP will be available if
// one has 80 instructions followed by two mispredicted branches than
// if one has 40 instructions, a mispredicted branch" (§3). The mean
// alone (instructions per break) hides this; the recorder captures
// the whole distribution.
package runlength

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"branchprof/internal/predict"
	"branchprof/internal/vm"
)

// Recorder implements vm.Tracer: given a static prediction, it
// records the distance (in instructions) between consecutive breaks —
// mispredicted conditional branches and unavoidable indirect
// transfers.
type Recorder struct {
	dirs      []bool // per-site predicted-taken
	lastBreak uint64
	full      [][]uint64 // filled blocks of runChunk runs, in order
	cur       []uint64   // the block being filled
	oob       uint64     // branch events at out-of-range sites (skipped)
}

// runChunk is the length of each block of recorded runs. Blocks are
// never copied as the record grows, so a replay with millions of breaks
// allocates its distribution about once rather than re-copying it at
// every append growth.
const runChunk = 1 << 15

// New builds a recorder for a prediction over the program's sites.
func New(pred *predict.Prediction) *Recorder {
	dirs := make([]bool, len(pred.Dir))
	for i, d := range pred.Dir {
		dirs[i] = d == predict.Taken
	}
	return &Recorder{dirs: dirs}
}

// Branch implements vm.Tracer. A site id outside the prediction's
// table (recorder attached with a stale site count) is counted on
// OutOfRange and skipped rather than panicking the run, matching the
// dynpred tracer contract.
func (r *Recorder) Branch(site int32, taken bool, instrs uint64) {
	if site < 0 || int(site) >= len(r.dirs) {
		r.oob++
		return
	}
	if r.dirs[site] != taken {
		r.record(instrs)
	}
}

// OutOfRange returns how many branch events carried a site id outside
// the prediction's table (program/prediction shape mismatch).
func (r *Recorder) OutOfRange() uint64 { return r.oob }

// Sites returns the size of the prediction's site table.
func (r *Recorder) Sites() int { return len(r.dirs) }

// Transfer implements vm.Tracer.
func (r *Recorder) Transfer(kind vm.TransferKind, instrs uint64) {
	if kind == vm.TransferIndirectCall || kind == vm.TransferIndirectReturn {
		r.record(instrs)
	}
}

func (r *Recorder) record(instrs uint64) {
	if len(r.cur) == runChunk {
		r.full = append(r.full, r.cur)
		r.cur = make([]uint64, 0, runChunk)
	}
	r.cur = append(r.cur, instrs-r.lastBreak)
	r.lastBreak = instrs
}

// blocks returns the recorded runs as blocks in execution order.
func (r *Recorder) blocks() [][]uint64 {
	return append(r.full[:len(r.full):len(r.full)], r.cur)
}

// Finish records the tail run — the instructions between the final
// break and program exit, which the break events alone never close.
// Without it that last stretch (the whole program, for a run with no
// breaks at all) silently vanishes from the distribution. Call it
// once after the run with the run's total instruction count
// (vm.Result.Instrs); calling it again, or with a count at or before
// the last break, is a no-op.
func (r *Recorder) Finish(totalInstrs uint64) {
	if totalInstrs > r.lastBreak {
		r.record(totalInstrs)
	}
}

// Runs returns a copy of the recorded run lengths in execution order
// (nil when none were recorded).
func (r *Recorder) Runs() []uint64 {
	n := len(r.full)*runChunk + len(r.cur)
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for _, b := range r.blocks() {
		out = append(out, b...)
	}
	return out
}

// Stats summarizes a run-length distribution.
type Stats struct {
	Count  int
	Mean   float64
	Median float64
	P90    float64
	P99    float64
	Max    uint64
	// CV is the coefficient of variation (stddev/mean); an
	// exponential spacing gives ~1, clustering gives more.
	CV float64
}

// Summarize computes distribution statistics.
func (r *Recorder) Summarize() Stats {
	sorted := r.Runs()
	n := len(sorted)
	if n == 0 {
		return Stats{}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum, sumsq float64
	for _, v := range sorted {
		f := float64(v)
		sum += f
		sumsq += f * f
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	q := func(p float64) float64 {
		idx := int(p * float64(n-1))
		return float64(sorted[idx])
	}
	s := Stats{
		Count:  n,
		Mean:   mean,
		Median: q(0.5),
		P90:    q(0.9),
		P99:    q(0.99),
		Max:    sorted[n-1],
	}
	if mean > 0 {
		s.CV = math.Sqrt(variance) / mean
	}
	return s
}

// Histogram buckets run lengths into powers of two up to maxLog2 and
// renders an ASCII histogram.
func (r *Recorder) Histogram(maxLog2 int) string {
	buckets := make([]int, maxLog2+1)
	for _, blk := range r.blocks() {
		for _, v := range blk {
			b := 0
			for v > 1 && b < maxLog2 {
				v >>= 1
				b++
			}
			buckets[b]++
		}
	}
	peak := 0
	for _, c := range buckets {
		if c > peak {
			peak = c
		}
	}
	var sb strings.Builder
	for b, c := range buckets {
		width := 0
		if peak > 0 {
			width = c * 40 / peak
		}
		lo := 1 << b
		label := fmt.Sprintf("2^%-2d (%d+)", b, lo)
		fmt.Fprintf(&sb, "%-12s %6d %s\n", label, c, strings.Repeat("#", width))
	}
	return sb.String()
}
