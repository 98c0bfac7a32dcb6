package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"branchprof/internal/obs"
)

// spanLog is a traced run's span file read back: per-layer metrics
// are computed from the same JSONL the program's tracer writes, not
// from separate timers.
type spanLog struct {
	recs     []obs.SpanRecord
	start    []time.Time
	children map[uint64][]int // parent span ID → record indices
}

// writeSpanLog writes the traced run's spans to path as JSONL, checks
// that obs.WriteChromeTrace accepts the file (writing the converted
// trace to chromePath for viewing), and reads the file back.
func writeSpanLog(jsonl []byte, path, chromePath string) (*spanLog, error) {
	if err := os.WriteFile(path, jsonl, 0o644); err != nil {
		return nil, fmt.Errorf("writing span log: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading span log: %w", err)
	}
	var chrome bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, bytes.NewReader(raw)); err != nil {
		return nil, fmt.Errorf("span log rejected by the Chrome trace converter: %w", err)
	}
	if err := os.WriteFile(chromePath, chrome.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("writing Chrome trace: %w", err)
	}
	return parseSpanLog(raw)
}

func parseSpanLog(raw []byte) (*spanLog, error) {
	l := &spanLog{children: make(map[uint64][]int)}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("span log line %d: %w", len(l.recs)+1, err)
		}
		start, err := time.Parse(time.RFC3339Nano, rec.Start)
		if err != nil {
			return nil, fmt.Errorf("span %d start: %w", rec.Span, err)
		}
		if rec.Parent != 0 {
			l.children[rec.Parent] = append(l.children[rec.Parent], len(l.recs))
		}
		l.recs = append(l.recs, rec)
		l.start = append(l.start, start)
	}
	return l, sc.Err()
}

func (l *spanLog) dur(i int) time.Duration {
	return time.Duration(l.recs[i].DurUS) * time.Microsecond
}

// selfTime is span i's duration minus the part of its interval that
// its direct children cover (overlapping children count once).
func (l *spanLog) selfTime(i int) time.Duration {
	lo, hi := l.start[i], l.start[i].Add(l.dur(i))
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range l.children[l.recs[i].Span] {
		a, b := l.start[c], l.start[c].Add(l.dur(c))
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
	var covered time.Duration
	var curA, curB time.Time
	for k, v := range ivs {
		switch {
		case k == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return l.dur(i) - covered
}

// match selects span indices by name and optional attribute equality.
func (l *spanLog) match(name string, attrs map[string]any) []int {
	var out []int
next:
	for i, r := range l.recs {
		if r.Name != name {
			continue
		}
		for k, v := range attrs {
			if r.Attrs[k] != v {
				continue next
			}
		}
		out = append(out, i)
	}
	return out
}

// durations returns the selected spans' durations in unit.
func (l *spanLog) durations(idx []int, unit time.Duration) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = float64(l.dur(i)) / float64(unit)
	}
	return out
}

// attrDurations returns the selected spans' "dur_ns" attributes in
// unit — the store decorator's nanosecond timings.
func (l *spanLog) attrDurations(idx []int, unit time.Duration) []float64 {
	out := make([]float64, len(idx))
	for k, i := range idx {
		ns, _ := l.recs[i].Attrs["dur_ns"].(float64)
		out[k] = ns / float64(unit)
	}
	return out
}

// sum adds the selected spans' durations, in seconds.
func (l *spanLog) sum(idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += l.dur(i).Seconds()
	}
	return s
}
