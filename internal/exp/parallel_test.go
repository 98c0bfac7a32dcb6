package exp

import (
	"testing"

	"branchprof/internal/engine"
)

// studyRenders runs every parallelized study against the package
// engine and concatenates the rendered artifacts.
func studyRenders(t *testing.T, s *Suite) string {
	t.Helper()
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	inl, err := InlineAblation()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectStudy()
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := StaticVsDynamic(s)
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := InstrsPerMispredict(s)
	if err != nil {
		t.Fatal(err)
	}
	h2p, err := H2PStudy(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := RunLengths(s)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := Coverage(s)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	return RenderTable1(t1) +
		RenderInlineAblation(inl) +
		RenderSelectStudy(sel) +
		RenderStaticVsDynamic(dyn) +
		RenderInstrsPerMispredict(ipm) +
		RenderH2P(h2p) +
		RenderRunLengths(rl) +
		RenderCoverage(cov) +
		RenderTraceStudy(tr)
}

// TestStudiesMatchSequential pins the parallelized experiment stages:
// every study must render byte-identically whether its fan runs on
// one worker or sixteen. Slot preassignment — not scheduling luck — is
// what the studies rely on for ordering, and this is the regression
// gate for it. Each engine collects its own suite: a suite caches its
// replays, so a reused suite would hand the second pass the first
// pass's results.
func TestStudiesMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite study sweep in -short mode")
	}
	prev := Engine()
	defer SetEngine(prev)

	render := func(workers int) string {
		eng := engine.New(engine.Options{Workers: workers})
		SetEngine(eng)
		s, err := CollectWith(eng)
		if err != nil {
			t.Fatal(err)
		}
		return studyRenders(t, s)
	}
	if seq, wide := render(1), render(16); seq != wide {
		t.Fatal("parallel studies render differently from sequential")
	}
}
