package runlength

import (
	"fmt"
	"strings"
	"testing"

	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/vm"
)

func recorder(dirs ...predict.Direction) *Recorder {
	return New(&predict.Prediction{Dir: dirs, FromProfile: make([]bool, len(dirs))})
}

func TestRecordsMispredictGaps(t *testing.T) {
	r := recorder(predict.Taken)
	r.Branch(0, true, 10)  // correct: no break
	r.Branch(0, false, 25) // mispredict: run of 25
	r.Branch(0, false, 40) // mispredict: run of 15
	r.Branch(0, true, 90)  // correct
	runs := r.Runs()
	if len(runs) != 2 || runs[0] != 25 || runs[1] != 15 {
		t.Errorf("runs = %v, want [25 15]", runs)
	}
}

func TestIndirectTransfersBreak(t *testing.T) {
	r := recorder(predict.NotTaken)
	r.Transfer(vm.TransferIndirectCall, 100)
	r.Transfer(vm.TransferCall, 150)   // direct: not a break
	r.Transfer(vm.TransferReturn, 180) // direct: not a break
	r.Transfer(vm.TransferIndirectReturn, 200)
	r.Transfer(vm.TransferJump, 220) // jumps never break
	runs := r.Runs()
	if len(runs) != 2 || runs[0] != 100 || runs[1] != 100 {
		t.Errorf("runs = %v, want [100 100]", runs)
	}
}

func TestSummarize(t *testing.T) {
	r := recorder(predict.NotTaken)
	// Breaks at 10, 20, 30, ..., 100: ten runs of 10.
	for i := uint64(1); i <= 10; i++ {
		r.Branch(0, true, 10*i)
	}
	s := r.Summarize()
	if s.Count != 10 || s.Mean != 10 || s.Median != 10 || s.Max != 10 {
		t.Errorf("stats = %+v", s)
	}
	if s.CV != 0 {
		t.Errorf("constant runs should have CV 0, got %v", s.CV)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	r := recorder(predict.NotTaken)
	s := r.Summarize()
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestSummarizeSkewed(t *testing.T) {
	r := recorder(predict.NotTaken)
	// 99 runs of 1 and one run of 1000: high CV, median 1, max 1000.
	at := uint64(0)
	for i := 0; i < 99; i++ {
		at++
		r.Branch(0, true, at)
	}
	at += 1000
	r.Branch(0, true, at)
	s := r.Summarize()
	if s.Median != 1 || s.Max != 1000 {
		t.Errorf("stats = %+v", s)
	}
	if s.CV < 5 {
		t.Errorf("CV = %v, want high for a skewed distribution", s.CV)
	}
}

func TestHistogram(t *testing.T) {
	r := recorder(predict.NotTaken)
	for _, at := range []uint64{1, 3, 7, 1007} {
		r.Branch(0, true, at)
	}
	h := r.Histogram(12)
	if !strings.Contains(h, "2^0") || !strings.Contains(h, "#") {
		t.Errorf("histogram:\n%s", h)
	}
	if len(strings.Split(strings.TrimSpace(h), "\n")) != 13 {
		t.Errorf("histogram should have 13 buckets:\n%s", h)
	}
}

// --- the tail run (Finish) -------------------------------------------

func TestFinishRecordsTailRun(t *testing.T) {
	r := recorder(predict.Taken)
	r.Branch(0, false, 25) // break: run of 25
	r.Finish(100)          // program exits at instruction 100
	runs := r.Runs()
	if len(runs) != 2 || runs[0] != 25 || runs[1] != 75 {
		t.Errorf("runs = %v, want [25 75] (tail recorded)", runs)
	}
	// Idempotent: a second Finish at the same count adds nothing.
	r.Finish(100)
	if len(r.Runs()) != 2 {
		t.Errorf("second Finish appended: %v", r.Runs())
	}
}

func TestFinishBreakFreeRun(t *testing.T) {
	// A run with no breaks at all used to vanish entirely; now it is
	// one run the length of the whole program.
	r := recorder(predict.Taken)
	r.Branch(0, true, 50) // correctly predicted: no break
	r.Finish(200)
	runs := r.Runs()
	if len(runs) != 1 || runs[0] != 200 {
		t.Errorf("runs = %v, want [200]", runs)
	}
	s := r.Summarize()
	if s.Count != 1 || s.Mean != 200 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFinishAtOrBeforeLastBreakIsNoOp(t *testing.T) {
	r := recorder(predict.Taken)
	r.Branch(0, false, 30)
	r.Finish(30) // exit coincides with the final break: no empty run
	if len(r.Runs()) != 1 {
		t.Errorf("runs = %v, want just the break run", r.Runs())
	}
}

func TestRecorderOutOfRange(t *testing.T) {
	r := recorder(predict.Taken)
	r.Branch(3, false, 10) // stale shape: beyond the table
	r.Branch(-2, true, 20)
	if len(r.Runs()) != 0 {
		t.Errorf("oob events recorded runs: %v", r.Runs())
	}
	if r.OutOfRange() != 2 {
		t.Errorf("OutOfRange = %d, want 2", r.OutOfRange())
	}
}

// TestTailAgainstRealProgram pins the accounting against an actual
// compiled run: a program whose only branch is a loop back-edge,
// predicted taken, mispredicts exactly once (the exit) — so the run
// distribution must be exactly two runs that sum to the run's total
// instruction count, the second being the post-loop tail.
func TestTailAgainstRealProgram(t *testing.T) {
	src := `
func main() int {
	var i int = 0;
	var n int = 0;
	while (i < 10) {
		n = n + i;
		i = i + 1;
	}
	n = n + 100;
	n = n + 200;
	return n;
}
`
	prog, err := mfc.Compile("tail", src, mfc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Predict every site taken: the back-edge then breaks only at exit.
	dirs := make([]predict.Direction, len(prog.Sites))
	for i := range dirs {
		dirs[i] = predict.Taken
	}
	r := New(&predict.Prediction{Dir: dirs, FromProfile: make([]bool, len(dirs))})
	res, err := vm.Run(prog, nil, &vm.Config{Trace: r})
	if err != nil {
		t.Fatal(err)
	}
	r.Finish(res.Instrs)
	runs := r.Runs()
	if len(runs) < 2 {
		t.Fatalf("runs = %v, want the loop-exit break plus the tail", runs)
	}
	var sum uint64
	for _, v := range runs {
		sum += v
	}
	if sum != res.Instrs {
		t.Errorf("runs sum to %d, program executed %d — instructions dropped", sum, res.Instrs)
	}
	// The tail is the epilogue after the loop: strictly positive.
	if tail := runs[len(runs)-1]; tail == 0 {
		t.Error("tail run has zero length")
	}
	if r.OutOfRange() != 0 {
		t.Errorf("OutOfRange = %d on a matching shape", r.OutOfRange())
	}
}

// --- per-site statistics ---------------------------------------------

func TestSiteRecorderStats(t *testing.T) {
	s := NewSites(2)
	// Site 0: T T T N T T T N — two runs of 3, two of 1.
	for i := 0; i < 2; i++ {
		s.Branch(0, true, 0)
		s.Branch(0, true, 0)
		s.Branch(0, true, 0)
		s.Branch(0, false, 0)
	}
	// Site 1: perfect alternation.
	for i := 0; i < 8; i++ {
		s.Branch(1, i%2 == 0, 0)
	}
	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	s0, s1 := stats[0], stats[1]
	if s0.Executed != 8 || s0.Taken != 6 || s0.TakenRate != 0.75 {
		t.Errorf("site 0 = %+v", s0)
	}
	if s0.Runs != 4 || s0.MeanRun != 2 || s0.MaxRun != 3 {
		t.Errorf("site 0 runs = %+v", s0)
	}
	if s1.TakenRate != 0.5 || s1.Entropy != 1 || s1.MaxRun != 1 || s1.MeanRun != 1 {
		t.Errorf("alternating site = %+v", s1)
	}
	// 0.75 taken: entropy strictly between 0 and 1.
	if s0.Entropy <= 0 || s0.Entropy >= 1 {
		t.Errorf("site 0 entropy = %v", s0.Entropy)
	}
}

func TestSiteRecorderNeverExecuted(t *testing.T) {
	s := NewSites(3)
	s.Branch(1, true, 0)
	stats := s.Stats()
	for _, i := range []int{0, 2} {
		st := stats[i]
		if st.Executed != 0 || st.TakenRate != 0 || st.Entropy != 0 || st.Runs != 0 || st.MeanRun != 0 {
			t.Errorf("never-executed site %d = %+v", i, st)
		}
	}
}

func TestSiteRecorderOutOfRange(t *testing.T) {
	s := NewSites(1)
	s.Branch(4, true, 0)
	s.Branch(-1, true, 0)
	s.Branch(0, true, 0)
	if s.OutOfRange() != 2 {
		t.Errorf("OutOfRange = %d, want 2", s.OutOfRange())
	}
	if st := s.Stats()[0]; st.Executed != 1 {
		t.Errorf("in-range site polluted: %+v", st)
	}
}

func TestEntropy(t *testing.T) {
	cases := []struct {
		taken, total uint64
		want         float64
	}{
		{0, 0, 0}, {0, 10, 0}, {10, 10, 0}, {5, 10, 1},
	}
	for _, c := range cases {
		if got := Entropy(c.taken, c.total); got != c.want {
			t.Errorf("Entropy(%d,%d) = %v, want %v", c.taken, c.total, got, c.want)
		}
	}
	if e := Entropy(1, 4); e <= 0.8 || e >= 0.82 {
		t.Errorf("Entropy(1,4) = %v, want ~0.811", e)
	}
}

// --- H2P ranking -----------------------------------------------------

func TestRankH2P(t *testing.T) {
	stats := []SiteStats{
		{Site: 0, Executed: 100},
		{Site: 1, Executed: 100},
		{Site: 2, Executed: 0}, // never executed: excluded
	}
	schemes := []SchemeMisses{
		{Scheme: "a", Misses: []uint64{50, 10, 0}},
		{Scheme: "b", Misses: []uint64{40, 30, 0}},
	}
	entries := RankH2P(stats, 1000, schemes, 0)
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	// Site 0: min(50,40)/1k instrs → 40 MPKI. Site 1: min(10,30) → 10.
	if entries[0].Stats.Site != 0 || entries[0].Score != 40 {
		t.Errorf("top = %+v", entries[0])
	}
	if entries[1].Stats.Site != 1 || entries[1].Score != 10 {
		t.Errorf("second = %+v", entries[1])
	}
	if len(entries[0].MPKI) != 2 || entries[0].MPKI[0].Scheme != "a" || entries[0].MPKI[0].MPKI != 50 {
		t.Errorf("scheme breakdown = %+v", entries[0].MPKI)
	}
	// Top-N truncation.
	if top := RankH2P(stats, 1000, schemes, 1); len(top) != 1 || top[0].Stats.Site != 0 {
		t.Errorf("top-1 = %+v", top)
	}
	// A scheme table shorter than the site id contributes zero misses,
	// not a panic.
	short := []SchemeMisses{{Scheme: "s", Misses: []uint64{7}}}
	if e := RankH2P(stats, 1000, short, 0); e[0].Stats.Site != 0 || e[0].Score != 7 {
		t.Errorf("short-table rank = %+v", e)
	}
}

func TestMPKI(t *testing.T) {
	if v := MPKI(5, 1000); v != 5 {
		t.Errorf("MPKI(5,1000) = %v", v)
	}
	if v := MPKI(5, 0); v != 0 {
		t.Errorf("MPKI with zero instrs = %v, want 0 (degenerate guard)", v)
	}
}

// TestRunsSpanBlocks: a record longer than one storage block reads
// back whole and in execution order through Runs, Summarize and
// Histogram.
func TestRunsSpanBlocks(t *testing.T) {
	r := recorder(predict.Taken)
	n := 2*runChunk + 3
	var instrs uint64
	want := make([]uint64, n)
	for i := range want {
		want[i] = uint64(i%7 + 1)
		instrs += want[i]
		r.Branch(0, false, instrs) // mispredicted: one break each
	}
	got := r.Runs()
	if len(got) != n {
		t.Fatalf("Runs has %d entries, want %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s := r.Summarize(); s.Count != n || s.Max != 7 || s.Median != 4 {
		t.Errorf("Summarize = %+v", s)
	}
	// Lengths 1..7 fall in buckets 2^0 (1), 2^1 (2–3) and 2^2 (4–7).
	total := 0
	for _, line := range strings.Split(strings.TrimSpace(r.Histogram(3)), "\n") {
		var b, lo, c int
		if _, err := fmt.Sscanf(line, "2^%d (%d+) %d", &b, &lo, &c); err != nil {
			t.Fatalf("histogram line %q: %v", line, err)
		}
		total += c
	}
	if total != n {
		t.Errorf("histogram counts %d runs, want %d", total, n)
	}
}
