package main

import (
	"io"
	"testing"

	"cdcreplay/cdc"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store/memstore"
)

// traceRun is one record or replay session of small MCB, with or without
// the benchmark's shim around each rank's endpoint.
type traceRun struct {
	results  []rankResult
	shims    []*shim
	released [][]simmpi.Status
}

func (tr *traceRun) app(withShim bool) cdc.App {
	tr.results = make([]rankResult, ranks)
	tr.shims = make([]*shim, ranks)
	tr.released = make([][]simmpi.Status, ranks)
	return func(rank int, mpi simmpi.MPI) error {
		if withShim {
			sh := newShim(mpi, true, true)
			tr.shims[rank] = sh
			mpi = sh
		}
		res, err := runMCB(mpi, 7, 0.05)
		tr.results[rank] = res
		return err
	}
}

func (tr *traceRun) onRelease(rank int, st simmpi.Status) {
	tr.released[rank] = append(tr.released[rank], st)
}

// releaseHash hashes a rank's released messages the way the shim hashes
// the messages it delivers.
func releaseHash(sts []simmpi.Status) uint64 {
	h := newShim(nil, false, false)
	h.deliver(0, 0, sts...)
	return h.hash
}

func record(t *testing.T, withShim bool, opts ...cdc.Option) (*traceRun, cdc.Store) {
	t.Helper()
	st := memstore.New()
	tr := &traceRun{}
	opts = append([]cdc.Option{cdc.WithStore(st), cdc.WithApp("mcb")}, opts...)
	if _, err := cdc.Record(newWorld(1, nil), tr.app(withShim), opts...); err != nil {
		t.Fatalf("record: %v", err)
	}
	return tr, st
}

func replayRun(t *testing.T, st cdc.Store, withShim bool, opts ...cdc.Option) *traceRun {
	t.Helper()
	tr := &traceRun{}
	opts = append([]cdc.Option{cdc.WithStore(st), cdc.WithApp("mcb"), cdc.WithOnRelease(tr.onRelease)}, opts...)
	if _, err := cdc.Replay(newWorld(2, nil), tr.app(withShim), opts...); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return tr
}

// TestShimTransparent shows the shim changes neither what the application
// computes nor the order replay releases messages in: a record made
// without it replays identically with it, and a record made through it
// replays identically without it. MF identification is off so the two
// sides need not share callsite identities (TestShimKeepsCallsitesApart
// covers those).
func TestShimTransparent(t *testing.T) {
	plainRec, st := record(t, false, cdc.WithoutMFID())
	ref := replayRun(t, st, false, cdc.WithoutMFID())
	shimmed := replayRun(t, st, true, cdc.WithoutMFID())
	for r := 0; r < ranks; r++ {
		if ref.results[r] != plainRec.results[r] || shimmed.results[r] != plainRec.results[r] {
			t.Errorf("rank %d: results differ: record %+v, replay %+v, replay through shim %+v",
				r, plainRec.results[r], ref.results[r], shimmed.results[r])
		}
		want := releaseHash(ref.released[r])
		if got := releaseHash(shimmed.released[r]); got != want {
			t.Errorf("rank %d: release order through the shim differs", r)
		}
		if shimmed.shims[r].hash != want {
			t.Errorf("rank %d: the shim's delivery hash does not match the released order", r)
		}
	}

	shimRec, st := record(t, true, cdc.WithoutMFID())
	back := replayRun(t, st, false, cdc.WithoutMFID())
	for r := 0; r < ranks; r++ {
		if back.results[r] != shimRec.results[r] {
			t.Errorf("rank %d: replay without the shim computed %+v, the shimmed record %+v", r, back.results[r], shimRec.results[r])
		}
		if releaseHash(back.released[r]) != shimRec.shims[r].hash {
			t.Errorf("rank %d: replay without the shim released another order than the shimmed record delivered", r)
		}
	}
}

// callsites counts the callsite registrations in rank 0's record.
func callsites(t *testing.T, st cdc.Store) int {
	t.Helper()
	rr, err := cdc.OpenRankRecord(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	n := 0
	for {
		f, err := rr.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == cdc.FrameCallsite {
			n++
		}
	}
}

// TestShimKeepsCallsitesApart checks that recording through the shim keeps
// one record stream per application callsite, as recording without it
// does: MCB polls particles and control messages from two Testsome sites.
func TestShimKeepsCallsitesApart(t *testing.T) {
	_, plain := record(t, false)
	_, shimmed := record(t, true)
	want, got := callsites(t, plain), callsites(t, shimmed)
	if want < 2 || got != want {
		t.Fatalf("record through the shim has %d callsite streams, without it %d", got, want)
	}
}
