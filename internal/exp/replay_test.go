package exp

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/faults"
	"branchprof/internal/workloads"
)

// replaySuite collects a small suite of registry workloads (a
// two-dataset, a single-dataset and a four-dataset program) on a
// fresh engine, installs that engine as the package engine for the
// test's duration, and returns both.
func replaySuite(t *testing.T) (*Suite, *engine.Engine) {
	t.Helper()
	var ws []*workloads.Workload
	for _, name := range []string{"fpppp", "lfk", "eqntott"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	eng := engine.New(engine.Options{})
	s, err := CollectCtx(context.Background(), eng, CollectOptions{Workloads: ws})
	if err != nil {
		t.Fatal(err)
	}
	prev := Engine()
	t.Cleanup(func() { SetEngine(prev) })
	SetEngine(eng)
	return s, eng
}

// replayLanes maps each lane that reads the shared replay to a call
// rendering its report over s.
func replayLanes(s *Suite) map[string]func() (string, error) {
	return map[string]func() (string, error){
		"dynamic": func() (string, error) {
			rows, err := StaticVsDynamic(s)
			return RenderStaticVsDynamic(rows), err
		},
		"ipm": func() (string, error) {
			rows, err := InstrsPerMispredict(s)
			return RenderInstrsPerMispredict(rows), err
		},
		"h2p": func() (string, error) {
			rows, err := H2PStudy(s, 3)
			return RenderH2P(rows), err
		},
		"runlengths": func() (string, error) {
			rows, err := RunLengths(s)
			return RenderRunLengths(rows), err
		},
		"traces": func() (string, error) {
			rows, err := TraceStudy(s)
			return RenderTraceStudy(rows), err
		},
	}
}

// TestReplayLanesShareOneRun pins the fusion: the five replay lanes
// together execute each program's first dataset exactly once, and a
// second pass over the same suite executes nothing.
func TestReplayLanesShareOneRun(t *testing.T) {
	s, eng := replaySuite(t)
	before := eng.Stats().Runs
	for lane, run := range replayLanes(s) {
		if _, err := run(); err != nil {
			t.Fatalf("%s: %v", lane, err)
		}
	}
	if got := eng.Stats().Runs - before; got != uint64(len(s.Programs)) {
		t.Fatalf("five replay lanes executed %d runs, want %d (one per program)", got, len(s.Programs))
	}
	before = eng.Stats().Runs
	for _, run := range replayLanes(s) {
		run()
	}
	if got := eng.Stats().Runs - before; got != 0 {
		t.Fatalf("second pass executed %d runs, want 0", got)
	}
}

// TestReplayLanesConcurrently: lanes racing over one suite still
// share one replay per program and render exactly what the lanes
// render one after another over a fresh suite.
func TestReplayLanesConcurrently(t *testing.T) {
	s, eng := replaySuite(t)
	lanes := replayLanes(s)
	before := eng.Stats().Runs
	got := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for lane, run := range lanes {
		wg.Add(1)
		go func(lane string, run func() (string, error)) {
			defer wg.Done()
			out, err := run()
			if err != nil {
				t.Errorf("%s: %v", lane, err)
			}
			mu.Lock()
			got[lane] = out
			mu.Unlock()
		}(lane, run)
	}
	wg.Wait()
	if runs := eng.Stats().Runs - before; runs != uint64(len(s.Programs)) {
		t.Errorf("concurrent lanes executed %d replays, want %d", runs, len(s.Programs))
	}
	fresh, _ := replaySuite(t)
	for lane, run := range replayLanes(fresh) {
		want, err := run()
		if err != nil {
			t.Fatalf("%s: %v", lane, err)
		}
		if got[lane] != want {
			t.Errorf("%s renders differently when lanes race:\n%s\nwant:\n%s", lane, got[lane], want)
		}
	}
}

// TestReplayFaultFailsEveryLane poisons the run stage of one program
// on the engine the lanes measure with. The single failed replay
// stays cached, so it is attempted once and every lane reports it,
// naming the program under the lane's own prefix.
func TestReplayFaultFailsEveryLane(t *testing.T) {
	s, _ := replaySuite(t)
	fs := faults.NewSet(1, faults.Rule{Stage: faults.Run, Kind: faults.Error, Label: "eqntott/"})
	SetEngine(engine.New(engine.Options{Faults: fs}))
	prefixes := map[string]string{
		"dynamic":    "exp: dynamic replay of eqntott: ",
		"ipm":        "exp: dynamic replay of eqntott: ",
		"h2p":        "exp: dynamic replay of eqntott: ",
		"runlengths": "exp: run-length replay of eqntott: ",
		"traces":     "exp: trace study measuring eqntott: ",
	}
	for lane, run := range replayLanes(s) {
		_, err := run()
		if err == nil {
			t.Errorf("%s: no error with eqntott's run stage poisoned", lane)
			continue
		}
		if !strings.HasPrefix(err.Error(), prefixes[lane]) {
			t.Errorf("%s: error %q, want prefix %q", lane, err, prefixes[lane])
		}
		if !faults.Is(err) {
			t.Errorf("%s: error lost the injected cause: %v", lane, err)
		}
	}
	if n := fs.Fired(faults.Run); n != 1 {
		t.Errorf("run-stage fault fired %d times, want 1 (the failed replay is cached)", n)
	}
}

// TestVariantLanesReportFirstFailureInRegistryOrder: Table1,
// InlineAblation and SelectStudy fan out over the pool, yet must
// report the failure a serial registry-order loop would hit first.
// fpppp (second in the registry) fails at its run stage after a
// delayed compile; every later workload fails at compile at once, so
// reporting in completion order would name one of them instead.
func TestVariantLanesReportFirstFailureInRegistryOrder(t *testing.T) {
	all := workloads.All()
	rules := []faults.Rule{
		{Stage: faults.Compile, Kind: faults.Delay, Label: "fpppp", Delay: 100 * time.Millisecond},
		{Stage: faults.Run, Kind: faults.Error, Label: "fpppp/"},
	}
	seen := false
	for _, w := range all {
		if seen {
			rules = append(rules, faults.Rule{Stage: faults.Compile, Kind: faults.Error, Label: w.Name})
		}
		seen = seen || w.Name == "fpppp"
	}
	if !seen || all[0].Name == "fpppp" {
		t.Skip("registry order changed; fpppp is not a later workload")
	}
	prev := Engine()
	defer SetEngine(prev)
	for lane, run := range map[string]func() error{
		"table1 measuring fpppp: ":          func() error { _, err := Table1(); return err },
		"inline ablation measuring fpppp: ": func() error { _, err := InlineAblation(); return err },
		"select study measuring fpppp: ":    func() error { _, err := SelectStudy(); return err },
	} {
		// A fresh engine per lane, so fpppp's compile is delayed each time.
		SetEngine(engine.New(engine.Options{Workers: 8, Faults: faults.NewSet(1, rules...)}))
		err := run()
		if err == nil {
			t.Errorf("%s: no error", lane)
			continue
		}
		if !strings.HasPrefix(err.Error(), "exp: "+lane) {
			t.Errorf("error %q, want prefix %q", err, "exp: "+lane)
		}
		var se *engine.StageError
		if !errors.As(err, &se) || se.Stage != faults.Run {
			t.Errorf("%s: error not from fpppp's run stage: %v", lane, err)
		}
	}
}

// twoDatasetWorkload branches on its input's first byte, so each
// dataset trains the input test the opposite way.
func twoDatasetWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name: "flip", Lang: workloads.C,
		Desc: "one input-dependent branch",
		Source: `func main() int {
	var c int = getc();
	var i int;
	var n int = 0;
	for (i = 0; i < 1000; i = i + 1) {
		if (c == 97) { n = n + 1; }
	}
	return n;
}
`,
		Datasets: []workloads.Dataset{
			{Name: "a", Desc: "takes the input test", Gen: func() []byte { return []byte("a") }},
			{Name: "b", Desc: "skips the input test", Gen: func() []byte { return []byte("b") }},
		},
	}
}

// TestReplayOthersExcludeTheReplayedRun: the sum-of-others predictor
// of a replay is trained on every dataset but the replayed one. On
// Runs[1] that is dataset a, which trains the input test the wrong
// way for b on every iteration; training on b itself would make
// "others" as good as self.
func TestReplayOthersExcludeTheReplayedRun(t *testing.T) {
	eng := engine.New(engine.Options{})
	s, err := CollectCtx(context.Background(), eng, CollectOptions{
		Workloads: []*workloads.Workload{twoDatasetWorkload()},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := Engine()
	defer SetEngine(prev)
	SetEngine(eng)
	p := s.Programs[0]
	rp, err := replayRun(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	self, others := rp.preds[0], rp.preds[1]
	if self.Name() != "self" || others.Name() != "others" {
		t.Fatalf("predictor order = %s, %s", self.Name(), others.Name())
	}
	if self.Mispredicts() > 2 {
		t.Errorf("self mispredicts %d on its own run", self.Mispredicts())
	}
	if others.Mispredicts() < 1000 {
		t.Errorf("others mispredicts %d, want ≥1000: trained on the replayed run itself", others.Mispredicts())
	}
}
