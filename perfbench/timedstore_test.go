package main

import (
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"branchprof/internal/obs"
	"branchprof/internal/server"
	"branchprof/internal/store"
	"branchprof/internal/store/wal"
)

// openStack builds one journaling, replicating node over a 4-shard
// store in dir, with or without the timing decorator (tracing on, so
// the decorator's span path runs too).
func openStack(t *testing.T, dir string, decorate bool) *server.Server {
	t.Helper()
	ctx := context.Background()
	sh, _, err := store.Open(ctx, filepath.Join(dir, "profiles.d"), store.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := sh
	if decorate {
		ts, err := newTimedStore(sh, &obs.Obs{Tr: obs.NewTracer(io.Discard, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ts.Stats(), sh.Stats()) || !ts.Stats().Guarded {
			t.Fatalf("decorated stats %+v, driver stats %+v", ts.Stats(), sh.Stats())
		}
		st = ts
	}
	srv, _, err := server.New(server.Options{
		Store: st, WALDir: filepath.Join(dir, "wal"), WALFsync: string(wal.FsyncBatch), SelfID: "n1",
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// ingestScript posts a fixed mix of single, batch, stream and predict
// requests and returns the response bodies.
func ingestScript(t *testing.T, url string) []string {
	t.Helper()
	src := branchySrc
	js := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	entry := func(ds, in string) string {
		return js(profileEntry{Program: "prog00", Source: src, Dataset: ds, Input: in})
	}
	reqs := []struct{ path, body string }{
		{"/v1/profile", entry("d0", "abcab")},
		{"/v1/profile", entry("d1", "aaaa")},
		{"/v1/profile/batch", `{"entries":[` + entry("d0", "xa") + `,` + entry("d2", "bbba") + `]}`},
		{"/v1/profile/stream", entry("d1", "ab") + "\n" + entry("d3", "ba") + "\n"},
		{"/v1/predict", js(map[string]string{"program": "prog00", "source": src, "target_dataset": "d1"})},
	}
	var out []string
	for _, r := range reqs {
		resp, err := http.Post(url+r.path, "application/json", strings.NewReader(r.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s %v", r.path, resp.StatusCode, raw, err)
		}
		out = append(out, string(raw))
	}
	return out
}

// treeBytes reads every regular file under dir, keyed by relative path.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		raw, err := os.ReadFile(p)
		rel, _ := filepath.Rel(dir, p)
		files[rel] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// crashRecovery is what one stack observably does: its replies to the
// ingest script, its journal counters, the files a crash leaves behind
// (journaled merges never saved), and what the restart replays.
type crashRecovery struct {
	replies  []string
	journal  wal.Stats
	files    map[string]string
	replayed uint64
	snapshot map[string]uint64 // key → executed branches
}

func runCrashRecovery(t *testing.T, decorate bool) crashRecovery {
	ctx := context.Background()
	dir := t.TempDir()
	srv := openStack(t, dir, decorate)
	ts := httptest.NewServer(srv.Handler())
	var cr crashRecovery
	cr.replies = ingestScript(t, ts.URL)
	ts.Close()
	// Journaled but never saved: the restart must replay these.
	p, err := srv.Store().Get(ctx, "prog00@d0")
	if err != nil || p == nil {
		t.Fatalf("reading prog00@d0: %v", err)
	}
	for _, key := range []string{"prog00@d0", "prog00@d9"} {
		p.Program = key
		if err := srv.Store().Merge(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	ws := srv.Repl().Inner().(*wal.Store)
	cr.journal = ws.WALStats()
	cr.journal.Dir = ""
	if err := srv.Store().Close(ctx); err != nil { // crash: no drain, no final save
		t.Fatal(err)
	}
	cr.files = treeBytes(t, dir)

	srv = openStack(t, dir, decorate)
	cr.replayed = srv.Repl().Inner().(*wal.Store).WALStats().Replayed
	snap, err := srv.Store().Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cr.snapshot = make(map[string]uint64)
	for k, p := range snap {
		cr.snapshot[k] = p.Executed()
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Close(ctx); err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestTimedStoreJournalsSavesReplaysLikeDriver: an ingest through the
// decorated stack journals, saves and replays exactly as one through
// the undecorated stack — same replies, journal counters, on-disk
// bytes after a crash, replay count and recovered state.
func TestTimedStoreJournalsSavesReplaysLikeDriver(t *testing.T) {
	plain := runCrashRecovery(t, false)
	timed := runCrashRecovery(t, true)
	if !reflect.DeepEqual(plain.replies, timed.replies) {
		t.Errorf("replies differ:\nplain %q\ntimed %q", plain.replies, timed.replies)
	}
	if plain.journal != timed.journal {
		t.Errorf("journal stats differ: plain %+v, timed %+v", plain.journal, timed.journal)
	}
	if plain.journal.Appends == 0 || plain.journal.Pending == 0 {
		t.Errorf("script journaled %d records, %d unsaved; want both > 0", plain.journal.Appends, plain.journal.Pending)
	}
	if len(plain.files) != len(timed.files) {
		t.Errorf("crash left %d files plain, %d timed", len(plain.files), len(timed.files))
	}
	for name, raw := range plain.files {
		if timed.files[name] != raw {
			t.Errorf("file %s differs after the crash", name)
		}
	}
	if plain.replayed == 0 || plain.replayed != timed.replayed {
		t.Errorf("replayed %d records plain, %d timed; want equal and > 0", plain.replayed, timed.replayed)
	}
	if !reflect.DeepEqual(plain.snapshot, timed.snapshot) {
		t.Errorf("recovered state differs: plain %v, timed %v", plain.snapshot, timed.snapshot)
	}
}

func TestTimedStoreRequiresCheckpoints(t *testing.T) {
	if _, err := newTimedStore(struct{ store.Store }{}, nil); err == nil {
		t.Fatal("decorating a store without checkpoints succeeded")
	}
}
