// Package dynpred simulates the hardware dynamic branch predictors
// the paper contrasts with static prediction: "dynamic methods
// usually involve attaching 1 or 2 bits to each branch and setting or
// incrementing those bits, as the program runs, to reflect the
// direction the branch most recently went in."
//
// The predictors implement vm.Tracer, so attaching one to a run
// measures its misprediction behaviour on exactly the branch stream
// the static predictors are evaluated against. Beyond the paper's
// 1-/2-bit schemes of [Smith 81], the zoo carries the history-based
// predictors the 1992 paper predates — two-level adaptive
// [Lee and Smith 84 / Yeh and Patt 91], gshare [McFarling 93] and
// Bi-Mode [Lee, Chen and Mudge 97] — so the reproduction can
// characterize which branches stay hard once history is available.
//
// Every scheme shares one tracer contract: branch events whose site
// id falls outside the predictor's tables (a tracer attached with a
// stale site count after a recompile) are never indexed — they are
// counted and surfaced as a structured *SiteRangeError from Err()
// instead of panicking the run — and every scheme attributes its
// mispredicts per site, which the H2P characterization lane consumes.
//
// Each scheme's update rule lives in one step method, called both by
// the scheme's own standalone Branch and by Bank, the tracer traced
// runs attach: it drives static tables, the whole zoo and the
// runlength recorders from one bounds check and one executed count
// per event.
package dynpred

import (
	"fmt"

	"branchprof/internal/runlength"
	"branchprof/internal/vm"
)

// Predictor is a dynamic branch predictor simulated over a run.
type Predictor interface {
	vm.Tracer
	// Name identifies the scheme in reports.
	Name() string
	// Executed returns the number of conditional branches seen (and
	// admitted: out-of-range sites are excluded, see Err).
	Executed() uint64
	// Mispredicts returns how many were predicted wrongly.
	Mispredicts() uint64
	// SiteExecuted returns per-site executed counts, indexed by static
	// branch site id. The slice is live; callers must not mutate it.
	SiteExecuted() []uint64
	// SiteMispredicts returns per-site mispredict counts, indexed by
	// static branch site id. The slice is live; callers must not
	// mutate it.
	SiteMispredicts() []uint64
	// Err reports structured trouble observed while tracing — today a
	// *SiteRangeError when any branch event carried a site id outside
	// the predictor's tables (program and predictor compiled from
	// different sources). Callers must check it after every traced
	// run; counters exclude the rejected events.
	Err() error
}

// SiteRangeError reports branch events whose site id fell outside the
// predictor's tables: the tracer was attached with a stale site count
// (the program was recompiled, or a profile/program pair mismatches).
// The predictor skips such events rather than indexing out of bounds;
// Count says how many were skipped and First which site arrived first.
type SiteRangeError struct {
	Scheme string // predictor name
	Sites  int    // table size the predictor was built for
	First  int32  // first out-of-range site id observed
	Count  uint64 // total out-of-range events skipped
}

// Error implements error.
func (e *SiteRangeError) Error() string {
	return fmt.Sprintf("dynpred: %s predictor sized for %d sites saw %d event(s) at out-of-range site(s) (first: %d); program and predictor disagree on the compiled shape",
		e.Scheme, e.Sites, e.Count, e.First)
}

// tally counts the admitted branch events — in aggregate and per
// site — and the events rejected at out-of-range sites. A standalone
// predictor owns its tally; a Bank shares one across every observer it
// holds, so one bounds check and one executed count serve them all.
type tally struct {
	executed uint64
	site     []uint64
	rejected uint64
	first    int32 // first rejected site id
}

func newTally(sites int) *tally {
	if sites < 0 {
		sites = 0
	}
	return &tally{site: make([]uint64, sites)}
}

// admit bounds-checks a site id and counts the event as executed, or
// records the reject on the error surface. Every observer of an event
// must see admit's verdict first, so the contract is identical across
// the zoo.
func (t *tally) admit(site int32) bool {
	if site >= 0 && int(site) < len(t.site) {
		t.executed++
		t.site[site]++
		return true
	}
	if t.rejected == 0 {
		t.first = site
	}
	t.rejected++
	return false
}

// err surfaces the rejected events as a *SiteRangeError naming scheme,
// or nil when none were rejected.
func (t *tally) err(scheme string) error {
	if t.rejected == 0 {
		return nil
	}
	return &SiteRangeError{Scheme: scheme, Sites: len(t.site), First: t.first, Count: t.rejected}
}

// core carries the bookkeeping every scheme shares: the executed
// tally, per-site mispredict counters and the scheme's name.
type core struct {
	name        string
	t           *tally
	mispredicts uint64
	siteMiss    []uint64
}

func newCore(name string, sites int) core {
	t := newTally(sites)
	return core{name: name, t: t, siteMiss: make([]uint64, len(t.site))}
}

// sites is the table size the scheme was built for.
func (c *core) sites() int { return len(c.t.site) }

// miss books one admitted outcome's prediction result.
func (c *core) miss(site int32, miss bool) {
	if miss {
		c.mispredicts++
		c.siteMiss[site]++
	}
}

// Name implements Predictor.
func (c *core) Name() string { return c.name }

// Executed implements Predictor.
func (c *core) Executed() uint64 { return c.t.executed }

// Mispredicts implements Predictor.
func (c *core) Mispredicts() uint64 { return c.mispredicts }

// SiteExecuted implements Predictor.
func (c *core) SiteExecuted() []uint64 { return c.t.site }

// SiteMispredicts implements Predictor.
func (c *core) SiteMispredicts() []uint64 { return c.siteMiss }

// Err implements Predictor.
func (c *core) Err() error { return c.t.err(c.name) }

// Transfer implements vm.Tracer (every scheme here ignores non-branch
// transfers).
func (c *core) Transfer(vm.TransferKind, uint64) {}

// bump saturates a 2-bit counter toward the outcome.
func bump(s uint8, taken bool) uint8 {
	if taken {
		if s < 3 {
			return s + 1
		}
		return s
	}
	if s > 0 {
		return s - 1
	}
	return s
}

// OneBit is the classic last-direction predictor: one bit per static
// branch, predicting the direction the branch went last time. Initial
// prediction is not-taken.
type OneBit struct {
	core
	last []bool
}

// NewOneBit returns a one-bit predictor for a program with sites
// static branches.
func NewOneBit(sites int) *OneBit {
	p := &OneBit{core: newCore("1-bit", sites)}
	p.last = make([]bool, p.sites())
	return p
}

// Branch implements vm.Tracer.
func (p *OneBit) Branch(site int32, taken bool, _ uint64) {
	if p.t.admit(site) {
		p.miss(site, p.step(site, taken))
	}
}

// step predicts an admitted site, trains on the outcome and reports
// whether the prediction missed.
func (p *OneBit) step(site int32, taken bool) bool {
	miss := p.last[site] != taken
	p.last[site] = taken
	return miss
}

// TwoBit is the saturating two-bit counter predictor [Smith 81]: per
// static branch a counter in [0,3]; >=2 predicts taken; taken
// increments, not-taken decrements, saturating. Counters start at 1
// (weakly not-taken).
type TwoBit struct {
	core
	state []uint8
}

// NewTwoBit returns a two-bit predictor for sites static branches.
func NewTwoBit(sites int) *TwoBit {
	p := &TwoBit{core: newCore("2-bit", sites)}
	p.state = make([]uint8, p.sites())
	for i := range p.state {
		p.state[i] = 1
	}
	return p
}

// Branch implements vm.Tracer.
func (p *TwoBit) Branch(site int32, taken bool, _ uint64) {
	if p.t.admit(site) {
		p.miss(site, p.step(site, taken))
	}
}

// step predicts an admitted site, trains on the outcome and reports
// whether the prediction missed.
func (p *TwoBit) step(site int32, taken bool) bool {
	s := p.state[site]
	p.state[site] = bump(s, taken)
	return (s >= 2) != taken
}

// Static adapts a fixed per-site direction table to the Predictor
// interface so static and dynamic schemes can be measured by the same
// machinery. dirs[i] is true when site i is predicted taken.
type Static struct {
	core
	dirs []bool
}

// NewStatic wraps a direction table.
func NewStatic(name string, dirs []bool) *Static {
	return &Static{core: newCore(name, len(dirs)), dirs: dirs}
}

// Branch implements vm.Tracer.
func (p *Static) Branch(site int32, taken bool, _ uint64) {
	if p.t.admit(site) {
		p.miss(site, p.step(site, taken))
	}
}

// step reports whether the table mispredicts an admitted site.
func (p *Static) step(site int32, taken bool) bool {
	return p.dirs[site] != taken
}

// DefaultHistoryBits is the history register length the zoo's
// history-based schemes default to. 12 bits (4096-entry tables) is
// far beyond the working set of any workload analogue here, so the
// measured mispredicts reflect the scheme, not table pressure.
const DefaultHistoryBits = 12

// clampBits normalizes a history/table width to [1,20].
func clampBits(bits int) int {
	if bits <= 0 {
		return DefaultHistoryBits
	}
	if bits > 20 {
		return 20
	}
	return bits
}

// TwoLevel is the per-address two-level adaptive predictor
// [Lee and Smith 84 / Yeh and Patt's PAg]: each static branch keeps
// its own history register of the branch's last historyBits outcomes,
// which indexes one shared pattern table of saturating 2-bit
// counters. Loop exits and short repeating patterns become perfectly
// predictable once the history distinguishes them.
type TwoLevel struct {
	core
	hist    []uint32 // per-site branch history registers
	pattern []uint8  // shared second-level 2-bit counters
	mask    uint32
}

// NewTwoLevel returns a two-level adaptive predictor for sites static
// branches with historyBits of per-branch history (<=0 selects
// DefaultHistoryBits).
func NewTwoLevel(sites, historyBits int) *TwoLevel {
	bits := clampBits(historyBits)
	p := &TwoLevel{core: newCore("two-level", sites), mask: 1<<bits - 1}
	p.hist = make([]uint32, p.sites())
	p.pattern = make([]uint8, 1<<bits)
	for i := range p.pattern {
		p.pattern[i] = 1 // weakly not-taken, like TwoBit
	}
	return p
}

// Branch implements vm.Tracer.
func (p *TwoLevel) Branch(site int32, taken bool, _ uint64) {
	if p.t.admit(site) {
		p.miss(site, p.step(site, taken))
	}
}

// step predicts an admitted site, trains on the outcome and reports
// whether the prediction missed.
func (p *TwoLevel) step(site int32, taken bool) bool {
	h := p.hist[site] & p.mask
	s := p.pattern[h]
	p.pattern[h] = bump(s, taken)
	p.hist[site] = p.hist[site] << 1
	if taken {
		p.hist[site] |= 1
	}
	return (s >= 2) != taken
}

// GShare is McFarling's global-history predictor: one global shift
// register of the last historyBits branch outcomes, XORed with the
// branch site to index a table of 2-bit counters. The XOR folds the
// branch identity into the history so correlated branches — one
// branch's outcome deciding another's — predict each other.
type GShare struct {
	core
	ghr   uint32
	table []uint8
	mask  uint32
}

// NewGShare returns a gshare predictor for sites static branches with
// a historyBits global register (<=0 selects DefaultHistoryBits).
func NewGShare(sites, historyBits int) *GShare {
	bits := clampBits(historyBits)
	p := &GShare{core: newCore("gshare", sites), mask: 1<<bits - 1}
	p.table = make([]uint8, 1<<bits)
	for i := range p.table {
		p.table[i] = 1
	}
	return p
}

// Branch implements vm.Tracer.
func (p *GShare) Branch(site int32, taken bool, _ uint64) {
	if p.t.admit(site) {
		p.miss(site, p.step(site, taken))
	}
}

// step predicts an admitted site, trains on the outcome and reports
// whether the prediction missed.
func (p *GShare) step(site int32, taken bool) bool {
	idx := (uint32(site) ^ p.ghr) & p.mask
	s := p.table[idx]
	p.table[idx] = bump(s, taken)
	p.ghr = shiftIn(p.ghr, taken, p.mask)
	return (s >= 2) != taken
}

// shiftIn shifts an outcome into a global history register of mask's
// width.
func shiftIn(ghr uint32, taken bool, mask uint32) uint32 {
	ghr <<= 1
	if taken {
		ghr |= 1
	}
	return ghr & mask
}

// BiMode is the Bi-Mode predictor [Lee, Chen and Mudge 97], the
// architecture of the ChampSim exemplar: the second-level table is
// split into a taken-biased and a not-taken-biased direction table,
// both indexed by global-history XOR site, with a per-site choice
// table of 2-bit counters selecting which bank predicts. Splitting by
// bias keeps a branch's dominant direction from being destructively
// aliased by branches biased the other way.
type BiMode struct {
	core
	ghr     uint32
	choice  []uint8 // first level: per-site bank selection
	takenT  []uint8 // taken-biased direction bank
	ntakenT []uint8 // not-taken-biased direction bank
	mask    uint32  // direction-bank index mask
	chMask  uint32  // choice-table index mask
}

// NewBiMode returns a Bi-Mode predictor for sites static branches.
// historyBits sizes the direction banks, choiceBits the choice table
// (<=0 selects DefaultHistoryBits for either).
func NewBiMode(sites, historyBits, choiceBits int) *BiMode {
	bits := clampBits(historyBits)
	cbits := clampBits(choiceBits)
	p := &BiMode{
		core:   newCore("bimode", sites),
		mask:   1<<bits - 1,
		chMask: 1<<cbits - 1,
	}
	p.choice = make([]uint8, 1<<cbits)
	p.takenT = make([]uint8, 1<<bits)
	p.ntakenT = make([]uint8, 1<<bits)
	for i := range p.choice {
		p.choice[i] = 1 // weakly select the not-taken bank
	}
	for i := range p.takenT {
		p.takenT[i] = 2 // the banks start at their bias
		p.ntakenT[i] = 1
	}
	return p
}

// Branch implements vm.Tracer.
func (p *BiMode) Branch(site int32, taken bool, _ uint64) {
	if p.t.admit(site) {
		p.miss(site, p.step(site, taken))
	}
}

// step predicts an admitted site, trains on the outcome and reports
// whether the prediction missed.
func (p *BiMode) step(site int32, taken bool) bool {
	idx := (uint32(site) ^ p.ghr) & p.mask
	ci := uint32(site) & p.chMask
	chooseTaken := p.choice[ci] >= 2
	bank := p.ntakenT
	if chooseTaken {
		bank = p.takenT
	}
	pred := bank[idx] >= 2
	// Only the selected bank trains, preserving the banks' biases.
	bank[idx] = bump(bank[idx], taken)
	// The choice table trains toward the outcome, except when the
	// selected bank was right while the choice direction disagreed
	// with the outcome — overriding a correct bank choice would
	// un-learn a working assignment (the Bi-Mode update rule).
	if !(pred == taken && chooseTaken != taken) {
		p.choice[ci] = bump(p.choice[ci], taken)
	}
	p.ghr = shiftIn(p.ghr, taken, p.mask)
	return pred != taken
}

// zoo holds one instance of every dynamic scheme at default sizing.
type zoo struct {
	oneBit   *OneBit
	twoBit   *TwoBit
	twoLevel *TwoLevel
	gshare   *GShare
	biMode   *BiMode
}

func newZoo(sites int) zoo {
	return zoo{
		oneBit:   NewOneBit(sites),
		twoBit:   NewTwoBit(sites),
		twoLevel: NewTwoLevel(sites, DefaultHistoryBits),
		gshare:   NewGShare(sites, DefaultHistoryBits),
		biMode:   NewBiMode(sites, DefaultHistoryBits, DefaultHistoryBits),
	}
}

// list returns the schemes in report order.
func (z *zoo) list() []Predictor {
	return []Predictor{z.oneBit, z.twoBit, z.twoLevel, z.gshare, z.biMode}
}

// Zoo returns one fresh instance of every dynamic scheme at default
// sizing, in report order: 1-bit, 2-bit, two-level, gshare, bimode.
// Each is a standalone tracer; experiments measure the whole zoo
// through a Bank, so one VM run measures every scheme on the identical
// branch stream.
func Zoo(sites int) []Predictor {
	z := newZoo(sites)
	return z.list()
}

// Bank is the one tracer a traced run attaches: it measures static
// direction tables and the whole Zoo on one branch stream, alongside
// an optional per-site recorder and run-length recorder. Each event
// is bounds-checked once and counted once — every predictor reads the
// bank's shared executed counts — and each scheme's step is called
// directly, so observing a run costs one interface call per event
// rather than one per observer.
//
// An event at an out-of-range site touches no predictor, site
// statistic or run length; Err reports it for every observer at once.
type Bank struct {
	t       *tally
	statics []*Static
	zoo
	preds   []Predictor
	siteRec *runlength.SiteRecorder // nil: off
	runs    *runlength.Recorder     // nil: off
}

// NewBank returns a bank for a program with sites static branches. It
// measures statics (fresh predictors, in order) and then a fresh Zoo;
// siteRec and runs, when non-nil, observe the same admitted stream.
// Every table and recorder must be sized for sites: the bank's single
// bounds check stands in for all of theirs.
func NewBank(sites int, statics []*Static, siteRec *runlength.SiteRecorder, runs *runlength.Recorder) (*Bank, error) {
	b := &Bank{t: newTally(sites), statics: statics, zoo: newZoo(sites), siteRec: siteRec, runs: runs}
	sites = len(b.t.site)
	for _, s := range statics {
		if len(s.dirs) != sites {
			return nil, fmt.Errorf("dynpred: static table %q has %d sites, bank has %d", s.name, len(s.dirs), sites)
		}
		b.preds = append(b.preds, s)
	}
	if siteRec != nil && siteRec.Sites() != sites {
		return nil, fmt.Errorf("dynpred: site recorder has %d sites, bank has %d", siteRec.Sites(), sites)
	}
	if runs != nil && runs.Sites() != sites {
		return nil, fmt.Errorf("dynpred: run-length recorder has %d sites, bank has %d", runs.Sites(), sites)
	}
	for _, s := range statics {
		s.t = b.t
	}
	for _, c := range []*core{&b.oneBit.core, &b.twoBit.core, &b.twoLevel.core, &b.gshare.core, &b.biMode.core} {
		c.t = b.t
	}
	b.preds = append(b.preds, b.zoo.list()...)
	return b, nil
}

// Predictors returns the bank's predictors in report order: the
// static tables as given, then 1-bit, 2-bit, two-level, gshare,
// bimode. They read live counts; callers must not feed them events.
func (b *Bank) Predictors() []Predictor { return b.preds }

// Branch implements vm.Tracer.
func (b *Bank) Branch(site int32, taken bool, instrs uint64) {
	if !b.t.admit(site) {
		return
	}
	for _, s := range b.statics {
		s.miss(site, s.step(site, taken))
	}
	b.oneBit.miss(site, b.oneBit.step(site, taken))
	b.twoBit.miss(site, b.twoBit.step(site, taken))
	b.twoLevel.miss(site, b.twoLevel.step(site, taken))
	b.gshare.miss(site, b.gshare.step(site, taken))
	b.biMode.miss(site, b.biMode.step(site, taken))
	if b.siteRec != nil {
		b.siteRec.Branch(site, taken, instrs)
	}
	if b.runs != nil {
		b.runs.Branch(site, taken, instrs)
	}
}

// Transfer implements vm.Tracer: only the run-length recorder reads
// transfers (indirect calls and returns break a run).
func (b *Bank) Transfer(kind vm.TransferKind, instrs uint64) {
	if b.runs != nil {
		b.runs.Transfer(kind, instrs)
	}
}

// Err reports the events rejected at out-of-range sites as one
// *SiteRangeError covering every observer, or nil. Callers must check
// it after every traced run.
func (b *Bank) Err() error { return b.t.err("bank") }
