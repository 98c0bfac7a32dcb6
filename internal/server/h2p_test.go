package server

import (
	"context"
	"net/http"
	"reflect"
	"testing"

	"branchprof/internal/dynpred"
	"branchprof/internal/ifprob"
	"branchprof/internal/mfc"
	"branchprof/internal/predict"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// mixSrc has one easy branch (the loop, almost always taken) and one
// hard branch (taken on every 'a' in the input), so an H2P ranking has
// a deterministic hardest site to find: with an alternating "abab..."
// input the `if (c == 97)` site flips every execution and must out-
// score the loop back-edge under every scheme.
const mixSrc = `
func main() int {
	var n int = 0;
	var c int = getc();
	while (c >= 0) {
		if (c == 97) {
			n = n + 1;
		}
		c = getc();
	}
	return n;
}
`

func h2pBody(program, dataset, source, input string, n int) map[string]any {
	return map[string]any{
		"program": program, "dataset": dataset, "source": source, "input": input, "n": n,
	}
}

func TestH2PProfilesReport(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})

	// No profiles yet: 404, not an empty report.
	if code := doJSON(t, s, "GET", "/v1/h2p?program=count", nil, nil); code != http.StatusNotFound {
		t.Fatalf("h2p before any profile = %d, want 404", code)
	}
	if code := doJSON(t, s, "GET", "/v1/h2p?program=bad@name", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("h2p with invalid name = %d, want 400", code)
	}

	for _, ds := range []struct{ name, input string }{
		{"mostly-a", "aaab"},
		{"alternating", "abababab"},
	} {
		if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", ds.name, mixSrc, ds.input), nil); code != http.StatusOK {
			t.Fatalf("profile %s = %d", ds.name, code)
		}
	}

	var resp h2pProfileResponse
	if code := doJSON(t, s, "GET", "/v1/h2p?program=count&n=2", nil, &resp); code != http.StatusOK {
		t.Fatalf("h2p = %d", code)
	}
	if resp.Mode != "profiles" || len(resp.Datasets) != 2 || resp.Instrs == 0 {
		t.Fatalf("bad h2p response: %+v", resp)
	}
	if len(resp.Top) == 0 || len(resp.Top) > 2 {
		t.Fatalf("top has %d sites, want 1..2", len(resp.Top))
	}
	prev := resp.Top[0].MPKI
	for _, site := range resp.Top {
		if site.MPKI > prev {
			t.Fatalf("ranking not descending: %+v", resp.Top)
		}
		prev = site.MPKI
		if site.Executed == 0 {
			t.Fatalf("never-executed site ranked: %+v", site)
		}
		if site.TakenRate < 0 || site.TakenRate > 1 || site.Entropy < 0 || site.Entropy > 1.0000001 {
			t.Fatalf("site stats out of range: %+v", site)
		}
	}
}

func TestH2PTracedReport(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})

	// Accumulate a profile first so the static scheme is profile-fed.
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "train", mixSrc, "abab"), nil); code != http.StatusOK {
		t.Fatal("profile failed")
	}

	var resp h2pTracedResponse
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("count", "alternating", mixSrc, "abababababababab", 3), &resp); code != http.StatusOK {
		t.Fatalf("traced h2p = %d", code)
	}
	if resp.Mode != "traced" || resp.Instrs == 0 || resp.Sites == 0 {
		t.Fatalf("bad traced response: %+v", resp)
	}
	if resp.HeuristicOnly || len(resp.TrainedOn) != 1 || resp.TrainedOn[0] != "train" {
		t.Fatalf("static scheme not profile-fed: %+v", resp)
	}
	if len(resp.Top) == 0 || len(resp.Top) > 3 {
		t.Fatalf("top has %d sites, want 1..3", len(resp.Top))
	}
	// Every ranked site carries the full scheme breakdown, with the
	// profile-fed static scheme first, and a finite score.
	for _, site := range resp.Top {
		if len(site.MPKI) != 6 {
			t.Fatalf("site %d has %d schemes, want 6 (static + zoo): %+v", site.Site, len(site.MPKI), site)
		}
		if site.MPKI[0].Scheme != "profile" {
			t.Fatalf("first scheme = %q, want the profile-fed static", site.MPKI[0].Scheme)
		}
		if site.Func == "" {
			t.Fatalf("ranked site missing source identity: %+v", site)
		}
	}
	// The alternating if is structurally the hardest branch here: high
	// entropy, run length 1. It must top the ranking.
	if top := resp.Top[0]; top.Entropy < 0.9 || top.Label != "if" {
		t.Fatalf("hardest branch = %+v, want the alternating if", top)
	}

	// Without any stored profile the static scheme falls back to the
	// heuristic — still a valid report.
	var fresh h2pTracedResponse
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("nameless", "", mixSrc, "ab", 0), &fresh); code != http.StatusOK {
		t.Fatal("heuristic-only traced h2p failed")
	}
	if !fresh.HeuristicOnly || len(fresh.TrainedOn) != 0 {
		t.Fatalf("expected heuristic-only fallback: %+v", fresh)
	}

	// Contract errors stay client errors.
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("count", "x", "func main( {", "", 0), nil); code != http.StatusBadRequest {
		t.Fatal("compile error not 400")
	}
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("bad@name", "x", mixSrc, "", 0), nil); code != http.StatusBadRequest {
		t.Fatal("invalid program name not 400")
	}
	if code := doJSON(t, s, "DELETE", "/v1/h2p", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatal("DELETE not 405")
	}

	// The report metrics are live on the shared registry.
	if v := s.m.h2pLastSites.Load(); v == 0 {
		t.Error("branchprof_h2p_last_sites not set")
	}
	if v := s.m.h2pLastInstrs.Load(); v == 0 {
		t.Error("branchprof_h2p_last_traced_instrs not set")
	}
}

// TestH2PTracedMatchesStandalone pins the traced report to the
// standalone schemes: the profile-fed static table, every zoo
// predictor and a per-site recorder, each run over the same input on
// its own, must rank the same entries with the same per-scheme costs
// the single traced run reports.
func TestH2PTracedMatchesStandalone(t *testing.T) {
	s := newTestServer(t, Options{Concurrency: 2})
	if code := doJSON(t, s, "POST", "/v1/profile", profileBody("count", "train", mixSrc, "aab"), nil); code != http.StatusOK {
		t.Fatal("profile failed")
	}
	const input = "abaabbbabababaaaab"
	var resp h2pTracedResponse
	if code := doJSON(t, s, "POST", "/v1/h2p", h2pBody("count", "mixed", mixSrc, input, 0), &resp); code != http.StatusOK {
		t.Fatalf("traced h2p = %d", code)
	}

	prog, err := s.eng.Compile("count", mixSrc, mfc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := s.store.Get(context.Background(), dbKey("count", "train"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := predict.Combine([]*ifprob.Profile{prof}, predict.Scaled, prog.Sites, predict.LoopHeuristic)
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]bool, len(pr.Dir))
	for i, d := range pr.Dir {
		dirs[i] = d == predict.Taken
	}
	preds := append([]dynpred.Predictor{dynpred.NewStatic("profile", dirs)}, dynpred.Zoo(len(prog.Sites))...)
	rec := runlength.NewSites(len(prog.Sites))
	var instrs uint64
	for _, tr := range append([]vm.Tracer{rec}, toTracers(preds)...) {
		res, err := vm.Run(prog, []byte(input), &vm.Config{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		instrs = res.Instrs
	}
	schemes := make([]runlength.SchemeMisses, len(preds))
	for i, p := range preds {
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		schemes[i] = runlength.SchemeMisses{Scheme: p.Name(), Misses: p.SiteMispredicts()}
	}
	want := runlength.RankH2P(rec.Stats(), instrs, schemes, 0)

	if resp.Instrs != instrs || len(resp.Top) != len(want) || len(want) == 0 {
		t.Fatalf("traced report has %d entries over %d instrs, standalone %d over %d", len(resp.Top), resp.Instrs, len(want), instrs)
	}
	for i, e := range want {
		got := resp.Top[i]
		st := e.Stats
		if got.Site != st.Site || got.Executed != st.Executed || got.TakenRate != st.TakenRate ||
			got.Entropy != st.Entropy || got.MeanRun != st.MeanRun || got.MaxRun != st.MaxRun ||
			got.Score != e.Score || !reflect.DeepEqual(got.MPKI, e.MPKI) {
			t.Errorf("rank %d: traced %+v, standalone %+v", i, got, e)
		}
	}
}

func toTracers(preds []dynpred.Predictor) []vm.Tracer {
	out := make([]vm.Tracer, len(preds))
	for i, p := range preds {
		out[i] = p
	}
	return out
}
