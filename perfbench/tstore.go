package main

import (
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/store"
)

// storeTimes accumulates the time spent in calls into a store.Store, summed
// across every rank's writer and reader. sync covers the calls that make a
// blob's bytes final, BlobWriter.Sync and BlobWriter.Close; other covers
// the manifest and open calls.
type storeTimes struct {
	writeNs, syncNs, commitNs, readNs, otherNs atomic.Int64
	commits                                    atomic.Int64

	mu        sync.Mutex
	commitLat []int64
}

// snapshot is a point-in-time copy of the totals, for per-phase deltas.
type storeSnapshot struct {
	writeNs, syncNs, commitNs, readNs, otherNs, commits int64
}

func (t *storeTimes) snapshot() storeSnapshot {
	return storeSnapshot{t.writeNs.Load(), t.syncNs.Load(), t.commitNs.Load(), t.readNs.Load(), t.otherNs.Load(), t.commits.Load()}
}

func (a storeSnapshot) sub(b storeSnapshot) storeSnapshot {
	return storeSnapshot{a.writeNs - b.writeNs, a.syncNs - b.syncNs, a.commitNs - b.commitNs, a.readNs - b.readNs, a.otherNs - b.otherNs, a.commits - b.commits}
}

// total is every call's time, reads included.
func (a storeSnapshot) total() int64 {
	return a.writeNs + a.syncNs + a.commitNs + a.readNs + a.otherNs
}

func since(acc *atomic.Int64, t0 time.Time) { acc.Add(now().Sub(t0).Nanoseconds()) }

// timedStore is a store.Store decorator that times every call into the
// backend it wraps, without changing what the calls do.
type timedStore struct {
	store.Store
	t *storeTimes
}

func newTimedStore(st store.Store, t *storeTimes) timedStore { return timedStore{Store: st, t: t} }

func (s timedStore) Manifest() (store.Manifest, error) {
	defer since(&s.t.otherNs, now())
	return s.Store.Manifest()
}

func (s timedStore) Create(m store.Manifest) error {
	defer since(&s.t.otherNs, now())
	return s.Store.Create(m)
}

func (s timedStore) WriteManifest(m store.Manifest) error {
	defer since(&s.t.otherNs, now())
	return s.Store.WriteManifest(m)
}

func (s timedStore) Finalize() error {
	defer since(&s.t.otherNs, now())
	return s.Store.Finalize()
}

func (s timedStore) Reopen() (store.Manifest, error) {
	defer since(&s.t.otherNs, now())
	return s.Store.Reopen()
}

func (s timedStore) Salvage() (*store.SalvageReport, error) {
	defer since(&s.t.otherNs, now())
	return s.Store.Salvage()
}

func (s timedStore) CreateRank(rank int) (store.BlobWriter, error) {
	defer since(&s.t.otherNs, now())
	w, err := s.Store.CreateRank(rank)
	if err != nil {
		return nil, err
	}
	return timedWriter{w, s.t}, nil
}

func (s timedStore) AppendRank(rank int) (store.BlobWriter, bool, error) {
	defer since(&s.t.otherNs, now())
	w, resume, err := s.Store.AppendRank(rank)
	if err != nil {
		return nil, false, err
	}
	return timedWriter{w, s.t}, resume, nil
}

func (s timedStore) OpenRank(rank int) (store.BlobReader, error) {
	defer since(&s.t.otherNs, now())
	r, err := s.Store.OpenRank(rank)
	if err != nil {
		return nil, err
	}
	return timedReader{r, s.t}, nil
}

func (s timedStore) RawRank(rank int) (store.BlobReader, error) {
	defer since(&s.t.otherNs, now())
	r, err := s.Store.RawRank(rank)
	if err != nil {
		return nil, err
	}
	return timedReader{r, s.t}, nil
}

type timedWriter struct {
	store.BlobWriter
	t *storeTimes
}

func (w timedWriter) Write(p []byte) (int, error) {
	defer since(&w.t.writeNs, now())
	return w.BlobWriter.Write(p)
}

func (w timedWriter) Sync() error {
	defer since(&w.t.syncNs, now())
	return w.BlobWriter.Sync()
}

func (w timedWriter) Commit(cut store.Cut) error {
	t0 := now()
	err := w.BlobWriter.Commit(cut)
	d := now().Sub(t0).Nanoseconds()
	w.t.commitNs.Add(d)
	w.t.commits.Add(1)
	w.t.mu.Lock()
	w.t.commitLat = append(w.t.commitLat, d)
	w.t.mu.Unlock()
	return err
}

func (w timedWriter) Close() error {
	defer since(&w.t.syncNs, now())
	return w.BlobWriter.Close()
}

type timedReader struct {
	store.BlobReader
	t *storeTimes
}

func (r timedReader) Read(p []byte) (int, error) {
	defer since(&r.t.readNs, now())
	return r.BlobReader.Read(p)
}

func (r timedReader) ReadAt(p []byte, off int64) (int, error) {
	defer since(&r.t.readNs, now())
	return r.BlobReader.ReadAt(p, off)
}

func (r timedReader) Close() error {
	defer since(&r.t.otherNs, now())
	return r.BlobReader.Close()
}
