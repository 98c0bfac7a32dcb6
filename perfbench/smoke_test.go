package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"branchprof/internal/workloads"
)

// TestMain lets a run's set-up probes re-execute this test binary the
// way they re-execute the benchmark binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "--probe" {
		main()
		return
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nreported:\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nreported:\n%v", b.PerLayer, perLayer())
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var table []string
	for n := range workloadTable {
		table = append(table, n)
	}
	sort.Strings(names)
	sort.Strings(table)
	if !reflect.DeepEqual(names, table) {
		t.Errorf("workloads in BENCHMARK.json %v, implemented %v", names, table)
	}
}

// smokeRun runs one workload through the same entry point the binary
// uses and returns the parsed result line.
func smokeRun(t *testing.T, name string, seconds time.Duration, trace bool) result {
	t.Helper()
	outDir = t.TempDir()
	var stdout bytes.Buffer
	cfg := runConfig{workload: name, seed: 7, seconds: seconds, trace: trace}
	if err := run(workloadTable[name], cfg, false, &stdout); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s reported %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v", name, d.Name, v)
		}
		if !trace && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v.Value)
		}
	}
	return res
}

// nonZero fails for each named metric the result reports as 0.
func nonZero(t *testing.T, res result, names ...string) {
	t.Helper()
	for _, n := range names {
		if res.Metrics[n].Value == 0 {
			t.Errorf("per-layer metric %s is 0", n)
		}
	}
}

func TestIngestSmoke(t *testing.T) {
	smokeRun(t, "ingest-mixed", 300*time.Millisecond, false)
	res := smokeRun(t, "ingest-mixed", 600*time.Millisecond, true)
	var names []string
	for k, kind := range ingestKinds {
		names = append(names, "server.self_ms."+serveRoutes[k], "ingest."+kind+"_p50_ms", "ingest."+kind+"_p99_ms")
	}
	nonZero(t, res, append(names, "engine.runs", "engine.instrs", "store.merge_us_p50", "store.get_us_p50",
		"store.save_ms_p50", "store.saves", "wal.appends", "wal.syncs", "wal.truncated", "sync.round_ms_p50",
		"sync.pulled", "trace.spans")...)
}

func TestPaperSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("a paper regeneration takes seconds")
	}
	res := smokeRun(t, "paper-full", time.Millisecond, true)
	var names []string
	for _, l := range examLanes {
		names = append(names, "exp."+l+"_s")
	}
	for _, p := range workloads.Names() {
		names = append(names, "vm.run_s."+p)
	}
	nonZero(t, res, append(names, "engine.compiles", "engine.runs", "engine.run_s", "engine.instrs",
		"engine.image_hit_ratio", "vm.minstrs_per_s", "trace.spans")...)
}

func TestQuietKeepsLowStealUnitsAndAtLeastATwentieth(t *testing.T) {
	u := func(steal float64) unit { return unit{wall: 1, steal: steal, ticks: 100} }
	steals := func(us []unit) []float64 {
		var s []float64
		for _, x := range us {
			s = append(s, x.steal)
		}
		return s
	}
	if got := steals(quiet([]unit{u(1), u(20), u(5), u(2)})); !reflect.DeepEqual(got, []float64{1, 2, 5}) {
		t.Errorf("quiet units kept: %v, want [1 2 5]", got)
	}
	noisy := []unit{u(20), u(10), u(30)}
	for i := 0; i < 20; i++ {
		noisy = append(noisy, u(40))
	}
	if got := steals(quiet(noisy)); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Errorf("noisy run kept: %v, want the quietest twentieth [10 20]", got)
	}
	if got := steals(quiet([]unit{u(9)})); !reflect.DeepEqual(got, []float64{9}) {
		t.Errorf("single stolen unit kept: %v, want [9]", got)
	}
}

func TestHostSpeedScalesEachUnitByTheSamplesAroundIt(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	times := func(compute, cpu, roundTrip float64) refTimes {
		return refTimes{Compute: compute * refNominal.Compute, CPU: cpu * refNominal.CPU, RoundTrip: roundTrip * refNominal.RoundTrip}
	}
	samples := []refSample{{at(0), times(1, 1, 1)}, {at(10), times(3, 2, 5)}}
	cases := []struct {
		from, to  float64
		waits     bool
		wall, cpu float64
	}{
		{1, 9, false, 0.5, 1 / 1.5},    // between both samples: their mean
		{1, 9, true, 1.0 / 3, 1 / 1.5}, // a waiting workload's wall time follows the round trips
		{-2, -1, false, 1, 1},          // before the first: only the next one
		{11, 12, false, 1.0 / 3, 0.5},  // after the last: only the previous one
		{0, 10, false, 0.5, 1 / 1.5},   // a sample ending as the unit starts counts
	}
	for _, c := range cases {
		h := &hostSpeed{waits: c.waits, samples: samples}
		w, cp := h.scales(at(c.from), at(c.to))
		if math.Abs(w-c.wall) > 1e-12 || math.Abs(cp-c.cpu) > 1e-12 {
			t.Errorf("unit %v..%v s, waits %v: scales %v, %v; want %v, %v", c.from, c.to, c.waits, w, cp, c.wall, c.cpu)
		}
	}
	if w, c := (*hostSpeed)(nil).scales(t0, t0); w != 1 || c != 1 {
		t.Errorf("nil host speed scales %v, %v; want 1, 1", w, c)
	}
}
