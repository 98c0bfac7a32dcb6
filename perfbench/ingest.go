package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"branchprof/internal/engine"
	"branchprof/internal/obs"
	"branchprof/internal/route"
	"branchprof/internal/server"
	"branchprof/internal/store"
	"branchprof/internal/store/wal"
	"branchprof/internal/vm"
)

// The ingest-mixed workload: two branchprofd nodes in this process,
// each a 4-shard store behind the timing decorator, a write-ahead
// journal with fsync=batch and the replication layer, served over
// loopback by httptest. runtime.NumCPU() client goroutines work
// through scripted rounds in a closed loop; every round ends with one
// anti-entropy sync per node.
//
// A round is cmd/loadgen's default round as `loadgen -nodes 2
// -wal-fsync batch` sends it: 64 profiles through each ingest path —
// one request each, batches of at most 64 entries per home node, one
// stream per home node — over 8 programs x 2 datasets of loadgen's
// program, with inputs in loadgen's form. Predictions, which loadgen
// does not send, get the same 64 a round. Unlike loadgen, the four
// paths share one round in an order shuffled from the seed.
const (
	nodeShards = 4  // loadgen -shards
	perPath    = 64 // loadgen -n
	maxBatch   = 64 // loadgen -batch
	programs   = 8  // loadgen -programs
	datasets   = 2  // loadgen -datasets
)

// branchySrc is loadgen's program: it branches on every input byte
// (taken exactly on 'a'). Both branches sit directly in the per-byte
// loop, so a run's executed branch count depends only on the input's
// length, which lets the exactly-once check know each acknowledged
// profile's executed count without re-running it.
const branchySrc = `
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

// Request kinds, indexing ingestKinds.
const (
	kindSingle = iota
	kindBatch
	kindStream
	kindPredict
)

var kindPath = [4]string{"/v1/profile", "/v1/profile/batch", "/v1/profile/stream", "/v1/predict"}

var nodeIDs = []string{"n1", "n2"}

// ingestKey is one program@dataset key of the fixed key space.
type ingestKey struct {
	program, dataset string
	home             int // node index route.Pick chooses
}

func (k ingestKey) name() string { return k.program + "@" + k.dataset }

// keySpace lists the programs x datasets keys, program-major, each
// with the home node a routing client sends it to.
func keySpace() ([]ingestKey, error) {
	var keys []ingestKey
	homed := make([]int, len(nodeIDs))
	for p := 0; p < programs; p++ {
		for d := 0; d < datasets; d++ {
			k := ingestKey{program: fmt.Sprintf("prog%02d", p), dataset: fmt.Sprintf("d%d", d)}
			h := route.Pick(nodeIDs, k.name())
			for i, id := range nodeIDs {
				if id == h {
					k.home = i
				}
			}
			homed[k.home]++
			keys = append(keys, k)
		}
	}
	for i, n := range homed {
		if n == 0 {
			return nil, fmt.Errorf("node %s is home to no key", nodeIDs[i])
		}
	}
	return keys, nil
}

// pathKey is the key of a path's i-th profile in a round: loadgen's
// program i%programs, with the dataset advancing every programs
// entries. (loadgen's own i%datasets reaches only half of the keys
// when datasets divides programs.)
func pathKey(i int) int { return (i%programs)*datasets + (i/programs)%datasets }

// profileEntry is the wire form of one profile ingest.
type profileEntry struct {
	Program string `json:"program"`
	Source  string `json:"source"`
	Dataset string `json:"dataset"`
	Input   string `json:"input"`
}

// request is one scripted HTTP request.
type request struct {
	kind     int
	node     int
	body     []byte
	keys     []int    // key index per ingest entry (one per profile)
	executed []uint64 // executed branch count per ingest entry
}

// ingestGen scripts rounds from the seed. Every input names the seed,
// the round and the entry, so no request is a run-cache hit.
type ingestGen struct {
	seed     int64
	rng      *rand.Rand
	keys     []ingestKey
	round    int
	eng      *engine.Engine
	executed map[int]uint64 // by input length
}

func newIngestGen(seed int64) (*ingestGen, error) {
	keys, err := keySpace()
	if err != nil {
		return nil, err
	}
	return &ingestGen{seed: seed, rng: rand.New(rand.NewSource(seed)), keys: keys,
		eng: engine.New(engine.Options{}), executed: make(map[int]uint64)}, nil
}

// executedFor is branchySrc's executed branch count on an n-byte
// input, measured once per length through a private engine on two
// inputs of different content, which must agree.
func (g *ingestGen) executedFor(n int) (uint64, error) {
	if c, ok := g.executed[n]; ok {
		return c, nil
	}
	var counts [2]uint64
	for j, b := range []byte("ab") {
		o, err := g.eng.Execute(engine.Spec{Name: "reference", Source: branchySrc, Dataset: "reference",
			Input: bytes.Repeat([]byte{b}, n), Config: vm.Config{Fuel: 1 << 26}})
		if err != nil {
			return 0, fmt.Errorf("reference run: %w", err)
		}
		counts[j] = o.Prof.Executed()
	}
	if counts[0] != counts[1] {
		return 0, fmt.Errorf("executed branches vary with input content (%d vs %d)", counts[0], counts[1])
	}
	g.executed[n] = counts[0]
	return counts[0], nil
}

// addEntries appends path kind's entries idx of the current round to
// r, returning them in wire form.
func (g *ingestGen) addEntries(r *request, idx []int) ([]profileEntry, error) {
	var entries []profileEntry
	for _, i := range idx {
		k := pathKey(i)
		e := profileEntry{Program: g.keys[k].program, Source: branchySrc, Dataset: g.keys[k].dataset,
			Input: fmt.Sprintf("%s-%d-%d-%d-abab", ingestKinds[r.kind], g.seed, g.round, i)}
		n, err := g.executedFor(len(e.Input))
		if err != nil {
			return nil, err
		}
		r.keys = append(r.keys, k)
		r.executed = append(r.executed, n)
		entries = append(entries, e)
	}
	return entries, nil
}

// byHome splits a path's entry numbers by their key's home node,
// keeping their order — the unit a routing client sends as batches or
// one stream.
func (g *ingestGen) byHome() [][]int {
	groups := make([][]int, len(nodeIDs))
	for i := 0; i < perPath; i++ {
		h := g.keys[pathKey(i)].home
		groups[h] = append(groups[h], i)
	}
	return groups
}

func (g *ingestGen) nextRound() ([]request, error) {
	g.round++
	var reqs []request
	add := func(kind, node int, idx []int, encode func([]profileEntry) ([]byte, error)) error {
		r := request{kind: kind, node: node}
		entries, err := g.addEntries(&r, idx)
		if err == nil {
			r.body, err = encode(entries)
		}
		reqs = append(reqs, r)
		return err
	}
	one := func(es []profileEntry) ([]byte, error) { return json.Marshal(es[0]) }
	batch := func(es []profileEntry) ([]byte, error) { return json.Marshal(map[string]any{"entries": es}) }
	stream := func(es []profileEntry) ([]byte, error) {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, e := range es {
			if err := enc.Encode(e); err != nil {
				return nil, err
			}
		}
		return b.Bytes(), nil
	}
	var errs []error
	for i := 0; i < perPath; i++ {
		errs = append(errs, add(kindSingle, g.keys[pathKey(i)].home, []int{i}, one))
	}
	for node, idx := range g.byHome() {
		for len(idx) > 0 {
			n := min(len(idx), maxBatch)
			errs = append(errs, add(kindBatch, node, idx[:n], batch))
			idx = idx[n:]
		}
	}
	for node, idx := range g.byHome() {
		if len(idx) > 0 {
			errs = append(errs, add(kindStream, node, idx, stream))
		}
	}
	for i := 0; i < perPath; i++ {
		k := g.keys[pathKey(i)]
		body, err := json.Marshal(map[string]string{
			"program": k.program, "source": branchySrc, "target_dataset": k.dataset,
		})
		errs = append(errs, err)
		reqs = append(reqs, request{kind: kindPredict, node: k.home, body: body})
	}
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("scripting round %d: %w", g.round, err)
	}
	g.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// node is one branchprofd replica.
type node struct {
	id  string
	url string
	srv *server.Server
	ts  *httptest.Server
}

// cluster is the two-node deployment plus the client that drives it.
type cluster struct {
	nodes  []*node
	client *http.Client
}

// newCluster builds the nodes under dir. A non-nil o traces the
// servers, their engines and the store decorators into o's tracer.
func newCluster(dir string, o *obs.Obs) (*cluster, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 64
	// The timeout bounds a wedged server; a healthy round takes
	// milliseconds per request.
	cl := &cluster{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
	// Every node needs its peers' URLs at construction, so all
	// listeners exist before the first server is built.
	for _, id := range nodeIDs {
		ts := httptest.NewUnstartedServer(nil)
		cl.nodes = append(cl.nodes, &node{id: id, url: "http://" + ts.Listener.Addr().String(), ts: ts})
	}
	for _, n := range cl.nodes {
		if err := n.start(dir, cl.nodes, o); err != nil {
			cl.close()
			return nil, fmt.Errorf("starting node %s: %w", n.id, err)
		}
	}
	return cl, nil
}

func (n *node) start(dir string, all []*node, o *obs.Obs) error {
	ctx := context.Background()
	sh, warns, err := store.Open(ctx, filepath.Join(dir, n.id, "profiles.d"), store.Options{Shards: nodeShards})
	for _, w := range warns {
		fmt.Fprintf(os.Stderr, "perfbench: %s store: %s\n", n.id, w)
	}
	if err != nil {
		return err
	}
	ts, err := newTimedStore(sh, o)
	if err != nil {
		sh.Close(ctx)
		return err
	}
	var peers []string
	for _, p := range all {
		if p != n {
			peers = append(peers, p.url)
		}
	}
	srv, warns, err := server.New(server.Options{
		Store:    ts,
		WALDir:   filepath.Join(dir, n.id, "wal"),
		WALFsync: string(wal.FsyncBatch),
		SelfID:   n.id,
		Peers:    peers,
		Obs:      o,
	})
	for _, w := range warns {
		fmt.Fprintf(os.Stderr, "perfbench: %s server: %s\n", n.id, w)
	}
	if err != nil {
		sh.Close(ctx)
		return err
	}
	n.srv = srv
	n.ts.Config.Handler = srv.Handler()
	n.ts.Start()
	return nil
}

// close drains every node (final save), closes its store and stops
// its listener.
func (cl *cluster) close() error {
	var errs []error
	for _, n := range cl.nodes {
		if n.srv != nil {
			n.ts.Close()
			errs = append(errs, n.srv.Drain(context.Background()))
			errs = append(errs, n.srv.Store().Close(context.Background()))
		} else {
			n.ts.Listener.Close()
		}
	}
	cl.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// reply is one request's outcome.
type reply struct {
	lat   time.Duration
	acked []bool // per ingest entry
	err   error
}

func (cl *cluster) do(ctx context.Context, r *request) reply {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.nodes[r.node].url+kindPath[r.kind], bytes.NewReader(r.body))
	if err != nil {
		return reply{err: err}
	}
	if r.kind == kindStream {
		req.Header.Set("Content-Type", "application/x-ndjson")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{lat: time.Since(t0), acked: make([]bool, len(r.keys))}
	if err != nil {
		rep.err = err
		return rep
	}
	if resp.StatusCode != http.StatusOK {
		rep.err = fmt.Errorf("%s: status %d: %.200s", kindPath[r.kind], resp.StatusCode, raw)
		return rep
	}
	rep.err = parseReply(r, raw, rep.acked)
	return rep
}

// entryStatus is the per-entry shape batch results and stream lines
// share; a stream's trailing summary sets Done.
type entryStatus struct {
	Index  int  `json:"index"`
	Status int  `json:"status"`
	Done   bool `json:"done"`
}

// parseReply marks the acknowledged entries of a 200 reply and reports
// any entry the server did not acknowledge.
func parseReply(r *request, raw []byte, acked []bool) error {
	switch r.kind {
	case kindSingle:
		acked[0] = true
	case kindBatch:
		var resp struct{ Results []entryStatus }
		if err := json.Unmarshal(raw, &resp); err != nil {
			return fmt.Errorf("batch reply: %w", err)
		}
		if len(resp.Results) != len(acked) {
			return fmt.Errorf("batch reply has %d results for %d entries", len(resp.Results), len(acked))
		}
		for i, e := range resp.Results {
			acked[i] = e.Status == http.StatusOK
		}
	case kindStream:
		sc := bufio.NewScanner(bytes.NewReader(raw))
		summary := false
		for sc.Scan() {
			var e entryStatus
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				return fmt.Errorf("stream reply line: %w", err)
			}
			if e.Done {
				summary = true
				continue
			}
			if e.Index < 0 || e.Index >= len(acked) {
				return fmt.Errorf("stream reply index %d out of range", e.Index)
			}
			acked[e.Index] = e.Status == http.StatusOK
		}
		if !summary {
			return errors.New("stream reply has no summary line")
		}
	case kindPredict:
		var resp struct{ Sites []json.RawMessage }
		if err := json.Unmarshal(raw, &resp); err != nil {
			return fmt.Errorf("predict reply: %w", err)
		}
		if len(resp.Sites) == 0 {
			return errors.New("predict reply has no sites")
		}
	}
	for i, ok := range acked {
		if !ok {
			return fmt.Errorf("%s entry %d not acknowledged", kindPath[r.kind], i)
		}
	}
	return nil
}

// run sends a round's requests from clients closed-loop goroutines.
func (cl *cluster) run(ctx context.Context, reqs []request, clients int) []reply {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				replies[i] = cl.do(ctx, &reqs[i])
			}
		}()
	}
	wg.Wait()
	return replies
}

// syncAll runs one anti-entropy round on every node in turn, each
// under a "sync.round" span when o traces.
func (cl *cluster) syncAll(ctx context.Context, o *obs.Obs) error {
	var errs []error
	for _, n := range cl.nodes {
		sctx, sp := o.Start(ctx, "sync.round", obs.A("node", n.id))
		err := n.srv.SyncNow(sctx)
		done(sp, err)
		if err != nil {
			errs = append(errs, fmt.Errorf("sync on %s: %w", n.id, err))
		}
	}
	return errors.Join(errs...)
}

// verify checks the run's end state after a final sync: both nodes'
// snapshots are byte-identical, and every key's executed count is the
// sum over its acknowledged profiles (exactly once).
func (cl *cluster) verify(keys []ingestKey, acked []int64, want []uint64) error {
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := cl.syncAll(ctx, nil); err != nil {
			return fmt.Errorf("final sync: %w", err)
		}
	}
	var first []byte
	for _, n := range cl.nodes {
		snap, err := n.srv.Store().Snapshot(ctx)
		if err != nil {
			return fmt.Errorf("snapshot of %s: %w", n.id, err)
		}
		raw, err := json.Marshal(snap)
		if err != nil {
			return fmt.Errorf("encoding snapshot of %s: %w", n.id, err)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			return fmt.Errorf("snapshots of %s and %s differ after the final sync", cl.nodes[0].id, n.id)
		}
		present := 0
		for i, k := range keys {
			p := snap[k.name()]
			switch {
			case p == nil && want[i] != 0:
				return fmt.Errorf("%s: key %s missing, %d profiles acknowledged", n.id, k.name(), acked[i])
			case p != nil && p.Executed() != want[i]:
				return fmt.Errorf("%s: key %s executed %d, want %d (%d acknowledged profiles)",
					n.id, k.name(), p.Executed(), want[i], acked[i])
			case p != nil:
				present++
			}
		}
		if present != len(snap) {
			return fmt.Errorf("%s: snapshot holds %d keys outside the key space", n.id, len(snap)-present)
		}
	}
	return nil
}

// ingestPass is one closed-loop window on one cluster.
type ingestPass struct {
	rounds    []unit // rate: acknowledged profiles per second
	lat       [4][]float64
	attempted int
	failed    int
	acked     []int64  // per key
	want      []uint64 // per key: executed branches acknowledged
}

// runIngest drives scripted rounds on cl for at least one round and
// until d has passed, then verifies the cluster's end state. When
// bench traces, each round runs under a "bench.round" root span
// (attribute traced); traced also puts the sync rounds under spans.
// A non-nil speed samples the host's speed between rounds.
func runIngest(cl *cluster, gen *ingestGen, d time.Duration, bench *obs.Obs, traced bool, speed *hostSpeed) (*ingestPass, error) {
	p := &ingestPass{acked: make([]int64, len(gen.keys)), want: make([]uint64, len(gen.keys))}
	clients := runtime.NumCPU()
	var syncObs *obs.Obs
	if traced {
		syncObs = bench
	}
	start := time.Now()
	for len(p.rounds) == 0 || time.Since(start) < d {
		if err := speed.between(); err != nil {
			return nil, err
		}
		reqs, err := gen.nextRound()
		if err != nil {
			return nil, err
		}
		ctx, root := bench.Start(context.Background(), "bench.round", obs.A("traced", traced))
		m := startUnit()
		replies := cl.run(ctx, reqs, clients)
		serr := cl.syncAll(ctx, syncObs)
		profiles := 0
		for _, rep := range replies {
			for _, ok := range rep.acked {
				if ok {
					profiles++
				}
			}
		}
		p.rounds = append(p.rounds, m.stop(float64(profiles)))
		root.End()
		p.attempted += len(reqs) + len(cl.nodes)
		if serr != nil {
			p.failed += len(cl.nodes)
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", serr)
		}
		for i, rep := range replies {
			r := &reqs[i]
			for j, ok := range rep.acked {
				if ok {
					p.acked[r.keys[j]]++
					p.want[r.keys[j]] += r.executed[j]
				}
			}
			if rep.err != nil {
				p.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s request: %v\n", ingestKinds[r.kind], rep.err)
				continue
			}
			p.lat[r.kind] = append(p.lat[r.kind], float64(rep.lat)/float64(time.Millisecond))
		}
	}
	if err := speed.sample(); err != nil {
		return nil, err
	}
	p.attempted++
	if err := cl.verify(gen.keys, p.acked, p.want); err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "perfbench: end-state check: %v\n", err)
	}
	return p, nil
}

// ingestSetup builds and tears down one cluster: the work every
// ingest-mixed run does before its first request.
func ingestSetup(cfg runConfig) error {
	dir := cfg.workDir("setup")
	defer os.RemoveAll(dir)
	cl, err := newCluster(dir, nil)
	if err != nil {
		return err
	}
	return cl.close()
}

// withCluster runs f on a fresh cluster in its own work directory.
func withCluster(cfg runConfig, name string, o *obs.Obs, f func(*cluster) error) error {
	dir := cfg.workDir(name)
	defer os.RemoveAll(dir)
	cl, err := newCluster(dir, o)
	if err != nil {
		return err
	}
	ferr := f(cl)
	return errors.Join(ferr, cl.close())
}

func measureIngest(cfg runConfig, speed *hostSpeed) (*outcome, error) {
	gen, err := newIngestGen(cfg.seed)
	if err != nil {
		return nil, err
	}
	var p *ingestPass
	err = withCluster(cfg, "measure", nil, func(cl *cluster) error {
		var err error
		p, err = runIngest(cl, gen, cfg.seconds, nil, false, speed)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted, out.failed = p.attempted, p.failed
	reportUnits(out, p.rounds, speed)
	latencyDetails(out, p)
	return out, nil
}

// latencyDetails reports each request kind's latency distribution:
// median, tail percentile and sample count.
func latencyDetails(out *outcome, p *ingestPass) {
	for k, name := range ingestKinds {
		tp, tv := tailPercentile(p.lat[k])
		out.details[name+"_latency_ms"] = map[string]any{
			"samples": len(p.lat[k]), "p50": median(p.lat[k]), "tail_percentile": tp, "tail": tv,
		}
	}
}

// traceIngest is the traced run: an untraced window on one cluster,
// then a traced window on a fresh cluster whose servers, engines,
// store decorators and sync rounds all trace into one span log.
func traceIngest(cfg runConfig) (*outcome, error) {
	gen, err := newIngestGen(cfg.seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	bench := &obs.Obs{Tr: obs.NewTracer(&buf, nil)}
	out := newOutcome()
	m := out.metrics
	var plain *ingestPass
	err = withCluster(cfg, "untraced", nil, func(cl *cluster) error {
		var err error
		plain, err = runIngest(cl, gen, cfg.seconds/2, bench, false, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	for k, name := range ingestKinds {
		m["ingest."+name+"_p50_ms"] = median(plain.lat[k])
		_, m["ingest."+name+"_p99_ms"] = tailPercentile(plain.lat[k])
	}
	latencyDetails(out, plain)
	var traced *ingestPass
	// The traced window is capped: a traced second writes tens of
	// thousands of spans, and the per-layer medians settle long before.
	window := min(cfg.seconds/2, 3*time.Second)
	err = withCluster(cfg, "traced", bench, func(cl *cluster) error {
		var err error
		if traced, err = runIngest(cl, gen, window, bench, true, nil); err != nil {
			return err
		}
		return clusterMetrics(cl, m)
	})
	if err != nil {
		return nil, err
	}
	out.attempted = plain.attempted + traced.attempted
	out.failed = plain.failed + traced.failed
	if err := bench.Tr.Err(); err != nil {
		return nil, err
	}
	log, err := writeSpanLog(buf.Bytes(), cfg.path("spans.jsonl"), cfg.path("chrome.json"))
	if err != nil {
		return nil, err
	}
	routes := [4]string{"serve.profile", "serve.profile_batch", "serve.profile_stream", "serve.predict"}
	for k, name := range serveRoutes {
		var self []float64
		for _, i := range log.match(routes[k], nil) {
			self = append(self, float64(log.selfTime(i))/float64(time.Millisecond))
		}
		m["server.self_ms."+name] = median(self)
	}
	m["store.merge_us_p50"] = median(log.attrDurations(log.match("store.merge", nil), time.Microsecond))
	m["store.get_us_p50"] = median(log.attrDurations(log.match("store.get", nil), time.Microsecond))
	saves := log.attrDurations(log.match("store.save", nil), time.Millisecond)
	m["store.save_ms_p50"] = median(saves)
	_, m["store.save_ms_p99"] = tailPercentile(saves)
	m["store.saves"] = float64(len(saves))
	m["sync.round_ms_p50"] = median(log.durations(log.match("sync.round", nil), time.Millisecond))
	m["trace.overhead_pct"] = overheadPct(log, "bench.round")
	m["trace.spans"] = float64(len(log.recs))
	return out, nil
}

// clusterMetrics reads the engine, server, journal and sync counters
// of a traced cluster: engine stats and journal stats in process, the
// rest from each node's GET /metrics.
func clusterMetrics(cl *cluster, m map[string]float64) error {
	var stats []engine.Stats
	prom := make(map[string]float64) // series summed across nodes
	var appends, syncs, truncated float64
	for _, n := range cl.nodes {
		stats = append(stats, n.srv.Engine().Stats())
		resp, err := cl.client.Get(n.url + "/metrics")
		if err != nil {
			return fmt.Errorf("GET /metrics on %s: %w", n.id, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reading /metrics on %s: %w", n.id, err)
		}
		for k, v := range parseProm(string(raw)) {
			prom[k] += v
		}
		ws, ok := n.srv.Repl().Inner().(*wal.Store)
		if !ok {
			return fmt.Errorf("node %s: replication layer does not wrap the journal", n.id)
		}
		st := ws.WALStats()
		appends += float64(st.Appends)
		syncs += float64(st.Syncs)
		truncated += float64(st.Truncated)
	}
	engineMetrics(m, stats, prom)
	m["server.shed"] = sumSeries(prom, "branchprofd_shed_total")
	m["server.errors_5xx"] = sumSeries(prom, "branchprofd_requests_total{", `code="5`)
	m["sync.pulled"] = sumSeries(prom, "branchprofd_repl_pulled_total")
	m["wal.appends"] = appends
	m["wal.syncs"] = syncs
	m["wal.truncated"] = truncated
	if syncs > 0 {
		m["wal.appends_per_sync"] = appends / syncs
	}
	return nil
}
