package main

import (
	"context"
	"fmt"
	"time"

	"branchprof/internal/ifprob"
	"branchprof/internal/obs"
	"branchprof/internal/store"
)

// timedStore is the store layer's timing decorator: it forwards every
// call to the wrapped driver and, when o traces, records one
// "store.<op>" span per call under the span the caller's context
// carries (the server's serve.<route> span, or the benchmark's
// sync.round span). In-memory operations take well under the span
// record's microsecond resolution, so each span also carries the
// call's duration in nanoseconds as attribute "dur_ns". Server options
// accept it as Options.Store, so it sits between the write-ahead
// journal and the sharded driver.
//
// It forwards store.Checkpointed, which the journal requires of the
// store it wraps, and Stats unchanged — Guarded included, so the
// server keeps relying on the driver's per-shard breakers instead of
// wrapping saves in its own.
type timedStore struct {
	inner store.Store
	cp    store.Checkpointed
	o     *obs.Obs
}

// newTimedStore decorates inner, which must implement
// store.Checkpointed (both built-in drivers do).
func newTimedStore(inner store.Store, o *obs.Obs) (*timedStore, error) {
	cp, ok := inner.(store.Checkpointed)
	if !ok {
		return nil, fmt.Errorf("timed store: %T does not implement store.Checkpointed", inner)
	}
	return &timedStore{inner: inner, cp: cp, o: o}, nil
}

// call is one timed store operation; with tracing off its span is a
// nil no-op.
type call struct {
	sp    *obs.Span
	start time.Time
}

func (t *timedStore) span(ctx context.Context, op string) call {
	_, sp := t.o.Start(ctx, "store."+op)
	if sp == nil {
		return call{}
	}
	return call{sp: sp, start: time.Now()}
}

func (c call) end(err error) {
	if c.sp == nil {
		return
	}
	c.sp.SetAttr("dur_ns", time.Since(c.start).Nanoseconds())
	done(c.sp, err)
}

// done records err on sp and ends it.
func done(sp *obs.Span, err error) {
	sp.SetError(err)
	sp.End()
}

func (t *timedStore) Get(ctx context.Context, key string) (*ifprob.Profile, error) {
	c := t.span(ctx, "get")
	p, err := t.inner.Get(ctx, key)
	c.end(err)
	return p, err
}

func (t *timedStore) Merge(ctx context.Context, p *ifprob.Profile) error {
	c := t.span(ctx, "merge")
	err := t.inner.Merge(ctx, p)
	c.end(err)
	return err
}

func (t *timedStore) Put(ctx context.Context, p *ifprob.Profile) error {
	c := t.span(ctx, "put")
	err := t.inner.Put(ctx, p)
	c.end(err)
	return err
}

func (t *timedStore) Delete(ctx context.Context, key string) error {
	c := t.span(ctx, "delete")
	err := t.inner.Delete(ctx, key)
	c.end(err)
	return err
}

func (t *timedStore) Keys(ctx context.Context) ([]string, error) {
	c := t.span(ctx, "keys")
	keys, err := t.inner.Keys(ctx)
	c.end(err)
	return keys, err
}

func (t *timedStore) Snapshot(ctx context.Context) (map[string]*ifprob.Profile, error) {
	c := t.span(ctx, "snapshot")
	m, err := t.inner.Snapshot(ctx)
	c.end(err)
	return m, err
}

func (t *timedStore) Load(ctx context.Context) error {
	c := t.span(ctx, "load")
	err := t.inner.Load(ctx)
	c.end(err)
	return err
}

func (t *timedStore) Save(ctx context.Context, keys ...string) error {
	c := t.span(ctx, "save")
	err := t.inner.Save(ctx, keys...)
	c.end(err)
	return err
}

func (t *timedStore) Close(ctx context.Context) error { return t.inner.Close(ctx) }

func (t *timedStore) Stats() store.Stats { return t.inner.Stats() }

func (t *timedStore) SaveGroup(key string) string { return t.cp.SaveGroup(key) }

func (t *timedStore) WALCheckpoint(key string) uint64 { return t.cp.WALCheckpoint(key) }

func (t *timedStore) StageWALCheckpoint(key string, seq uint64) {
	t.cp.StageWALCheckpoint(key, seq)
}
