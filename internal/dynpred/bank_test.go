package dynpred

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"branchprof/internal/predict"
	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// event is one tracer callback: a branch outcome, or a non-branch
// transfer when transfer is set.
type event struct {
	transfer bool
	kind     vm.TransferKind
	site     int32
	taken    bool
	instrs   uint64
}

// stream is a bank shape plus the events fed to it.
type stream struct {
	sites   int
	statics [2][]bool // "self" (also the run-length prediction), "others"
	events  []event
	total   uint64 // instruction count passed to Finish
}

// decodeStream turns arbitrary bytes into a stream: data[0] sizes the
// program (1–8 sites), data[1] and data[2] are the two static
// direction tables as bit masks, and each later byte is one event — a
// transfer of any vm.TransferKind when its top bit is set, else a
// branch whose site ranges over -1..sites, so both out-of-range sides
// occur. Instruction counts never decrease, as in a real run.
func decodeStream(data []byte) stream {
	header := [3]byte{}
	copy(header[:], data)
	s := stream{sites: int(header[0]%8) + 1}
	for k := range s.statics {
		s.statics[k] = make([]bool, s.sites)
		for i := range s.statics[k] {
			s.statics[k][i] = header[k+1]>>i&1 == 1
		}
	}
	var instrs uint64
	for i := 3; i < len(data); i++ {
		b := data[i]
		instrs += uint64(b>>4&3) + 1
		if b&0x80 != 0 {
			s.events = append(s.events, event{transfer: true, kind: vm.TransferKind(b % 5), instrs: instrs})
			continue
		}
		s.events = append(s.events, event{
			site:   int32(int(b&0x0f)%(s.sites+2)) - 1,
			taken:  b&0x40 != 0,
			instrs: instrs,
		})
	}
	s.total = instrs + 7
	return s
}

// observers is everything a traced replay reads back.
type observers struct {
	preds []Predictor
	sites *runlength.SiteRecorder
	runs  *runlength.Recorder
}

func newObservers(s stream) observers {
	dirs := make([]predict.Direction, s.sites)
	for i, d := range s.statics[0] {
		if d {
			dirs[i] = predict.Taken
		}
	}
	return observers{
		sites: runlength.NewSites(s.sites),
		runs:  runlength.New(&predict.Prediction{Dir: dirs, FromProfile: make([]bool, s.sites)}),
	}
}

func staticsOf(s stream) []*Static {
	return []*Static{NewStatic("self", s.statics[0]), NewStatic("others", s.statics[1])}
}

func feedAll(t vm.Tracer, events []event) {
	for _, e := range events {
		if e.transfer {
			t.Transfer(e.kind, e.instrs)
		} else {
			t.Branch(e.site, e.taken, e.instrs)
		}
	}
}

// runAlone feeds the stream to each standalone predictor and recorder
// on its own — the reference a bank must reproduce.
func runAlone(s stream) observers {
	o := newObservers(s)
	for _, p := range staticsOf(s) {
		o.preds = append(o.preds, p)
	}
	o.preds = append(o.preds, Zoo(s.sites)...)
	for _, p := range o.preds {
		feedAll(p, s.events)
	}
	feedAll(o.sites, s.events)
	feedAll(o.runs, s.events)
	o.runs.Finish(s.total)
	return o
}

// runBank feeds the stream once through a bank.
func runBank(s stream) (*Bank, observers, error) {
	o := newObservers(s)
	b, err := NewBank(s.sites, staticsOf(s), o.sites, o.runs)
	if err != nil {
		return nil, o, err
	}
	feedAll(b, s.events)
	o.runs.Finish(s.total)
	o.preds = b.Predictors()
	return b, o, nil
}

// diffObservers compares a bank's observers with the standalone
// reference field for field, returning the first difference.
func diffObservers(bank, alone observers) string {
	if len(bank.preds) != len(alone.preds) {
		return fmt.Sprintf("bank has %d predictors, reference %d", len(bank.preds), len(alone.preds))
	}
	for i, a := range alone.preds {
		b := bank.preds[i]
		for _, f := range []struct {
			field     string
			got, want any
		}{
			{"Name", b.Name(), a.Name()},
			{"Executed", b.Executed(), a.Executed()},
			{"Mispredicts", b.Mispredicts(), a.Mispredicts()},
			{"SiteExecuted", b.SiteExecuted(), a.SiteExecuted()},
			{"SiteMispredicts", b.SiteMispredicts(), a.SiteMispredicts()},
			{"Err", b.Err(), a.Err()},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				return fmt.Sprintf("%s.%s = %v, standalone %v", a.Name(), f.field, f.got, f.want)
			}
		}
	}
	if got, want := bank.sites.Stats(), alone.sites.Stats(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("SiteRecorder.Stats = %+v, standalone %+v", got, want)
	}
	if got, want := bank.runs.Runs(), alone.runs.Runs(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Recorder.Runs = %v, standalone %v", got, want)
	}
	// The bank's single bounds check stands in for the recorders'.
	if bank.sites.OutOfRange() != 0 || bank.runs.OutOfRange() != 0 {
		return "an out-of-range event reached a bank recorder"
	}
	return ""
}

// wantBankErr is the bank's expected Err: the standalone 1-bit
// predictor's rejects, renamed to the bank.
func wantBankErr(alone observers) error {
	var sre *SiteRangeError
	if !errors.As(alone.preds[2].Err(), &sre) {
		return nil
	}
	return &SiteRangeError{Scheme: "bank", Sites: sre.Sites, First: sre.First, Count: sre.Count}
}

// checkBank runs data's stream through a bank and through the
// standalone observers and fails t on any difference.
func checkBank(t *testing.T, data []byte) {
	t.Helper()
	s := decodeStream(data)
	b, bank, err := runBank(s)
	if err != nil {
		t.Fatalf("NewBank: %v", err)
	}
	alone := runAlone(s)
	if d := diffObservers(bank, alone); d != "" {
		t.Fatal(d)
	}
	if got, want := b.Err(), wantBankErr(alone); !reflect.DeepEqual(got, want) {
		t.Fatalf("Bank.Err = %v, want %v", got, want)
	}
}

// TestBankFansOut: one event stream reaches every observer — each
// predictor, the site recorder and the run-length recorder, which
// alone reads transfers (only indirect ones break a run).
func TestBankFansOut(t *testing.T) {
	rec := runlength.NewSites(2)
	runs := runlength.New(&predict.Prediction{Dir: []predict.Direction{predict.Taken, predict.NotTaken}, FromProfile: make([]bool, 2)})
	b, err := NewBank(2, []*Static{NewStatic("s", []bool{true, false})}, rec, runs)
	if err != nil {
		t.Fatal(err)
	}
	b.Branch(0, true, 1)
	b.Transfer(vm.TransferCall, 2)
	b.Transfer(vm.TransferIndirectCall, 5) // break: run of 5
	b.Branch(1, true, 9)                   // mispredicted by the table: run of 4
	b.Transfer(vm.TransferJump, 10)
	b.Transfer(vm.TransferIndirectReturn, 12) // break: run of 3
	preds := b.Predictors()
	names := make([]string, len(preds))
	for i, p := range preds {
		names[i] = p.Name()
		if p.Executed() != 2 || p.SiteExecuted()[0] != 1 || p.SiteExecuted()[1] != 1 {
			t.Errorf("%s executed %d %v, want 2 [1 1]", p.Name(), p.Executed(), p.SiteExecuted())
		}
	}
	if want := []string{"s", "1-bit", "2-bit", "two-level", "gshare", "bimode"}; !reflect.DeepEqual(names, want) {
		t.Errorf("report order = %v, want %v", names, want)
	}
	if preds[0].Mispredicts() != 1 || preds[0].SiteMispredicts()[1] != 1 {
		t.Errorf("static mispredicts = %d %v, want 1 at site 1", preds[0].Mispredicts(), preds[0].SiteMispredicts())
	}
	if st := rec.Stats(); st[0].Executed != 1 || st[1].Taken != 1 {
		t.Errorf("site stats = %+v", st)
	}
	if got := runs.Runs(); !reflect.DeepEqual(got, []uint64{5, 4, 3}) {
		t.Errorf("runs = %v, want [5 4 3]", got)
	}
	if b.Err() != nil {
		t.Errorf("Err = %v on an in-range stream", b.Err())
	}
}

// TestBankEquivalentToAlone: a bank leaves every observer in exactly
// the state it reaches fed the same events on its own — the bank is
// plumbing, not a scheme.
func TestBankEquivalentToAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 150; i++ {
		data := make([]byte, 3+rng.Intn(600))
		rng.Read(data)
		checkBank(t, data)
	}
}

// TestBankRejectsOutOfRange: a bank sized for N sites fed site N and
// site -1 rejects both events before any observer sees them, and one
// *SiteRangeError covers them all.
func TestBankRejectsOutOfRange(t *testing.T) {
	const n = 3
	rec := runlength.NewSites(n)
	never := []predict.Direction{predict.NotTaken, predict.NotTaken, predict.NotTaken}
	runs := runlength.New(&predict.Prediction{Dir: never, FromProfile: make([]bool, n)})
	b, err := NewBank(n, []*Static{NewStatic("s", make([]bool, n))}, rec, runs)
	if err != nil {
		t.Fatal(err)
	}
	b.Branch(0, true, 10) // in range, mispredicted by the table: run of 10
	b.Branch(n, true, 20) // beyond the tables
	b.Branch(-1, true, 30)
	b.Branch(2, false, 40) // in range, predicted

	want := &SiteRangeError{Scheme: "bank", Sites: n, First: n, Count: 2}
	var sre *SiteRangeError
	if !errors.As(b.Err(), &sre) || !reflect.DeepEqual(sre, want) {
		t.Fatalf("Bank.Err = %v, want %+v", b.Err(), want)
	}
	for _, p := range b.Predictors() {
		if p.Executed() != 2 {
			t.Errorf("%s executed %d, want 2 (rejects excluded)", p.Name(), p.Executed())
		}
		if !errors.As(p.Err(), &sre) || sre.Scheme != p.Name() || sre.Count != 2 || sre.First != n {
			t.Errorf("%s Err = %v", p.Name(), p.Err())
		}
		var miss uint64
		for _, m := range p.SiteMispredicts() {
			miss += m
		}
		if miss != p.Mispredicts() || p.Mispredicts() > 2 {
			t.Errorf("%s mispredicts %d, per site %v", p.Name(), p.Mispredicts(), p.SiteMispredicts())
		}
	}
	var executed uint64
	for _, st := range rec.Stats() {
		executed += st.Executed
	}
	if executed != 2 || rec.OutOfRange() != 0 {
		t.Errorf("site recorder saw %d events, %d out of range; want 2, 0", executed, rec.OutOfRange())
	}
	if got := runs.Runs(); !reflect.DeepEqual(got, []uint64{10}) || runs.OutOfRange() != 0 {
		t.Errorf("runs = %v (%d out of range), want [10]", got, runs.OutOfRange())
	}
}

// TestNewBankRejectsMismatchedShapes: the bank's single bounds check
// is only sound when every table and recorder matches its size.
func TestNewBankRejectsMismatchedShapes(t *testing.T) {
	short := &predict.Prediction{Dir: make([]predict.Direction, 1), FromProfile: make([]bool, 1)}
	for name, build := range map[string]func() (*Bank, error){
		"static":   func() (*Bank, error) { return NewBank(2, []*Static{NewStatic("s", make([]bool, 3))}, nil, nil) },
		"sites":    func() (*Bank, error) { return NewBank(2, nil, runlength.NewSites(1), nil) },
		"runs":     func() (*Bank, error) { return NewBank(2, nil, nil, runlength.New(short)) },
		"matching": func() (*Bank, error) { return NewBank(1, nil, runlength.NewSites(1), runlength.New(short)) },
	} {
		_, err := build()
		if (err == nil) != (name == "matching") {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// FuzzBank decodes arbitrary bytes into an interleaved stream of
// branch events (in range and out of range) and transfers of every
// kind, and requires a bank to match the standalone predictors,
// SiteRecorder and Recorder field for field.
func FuzzBank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0x40, 0x40, 0x00})
	f.Add([]byte{3, 0x0f, 0x05, 0x41, 0x42, 0x80, 0x83, 0x04, 0x45, 0x00, 0x84, 0x01})
	f.Add([]byte{7, 0xff, 0x00, 0x49, 0x09, 0x00, 0x48, 0x81, 0x82, 0x83, 0x84, 0x85, 0x4a})
	f.Fuzz(checkBank)
}
