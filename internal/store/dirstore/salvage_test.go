package dirstore_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cdcreplay/cdc"
	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

// tear chops n bytes off the tail of a rank file so its final frames are
// damaged, as a crash mid-write would leave them.
func tear(t *testing.T, path string, n int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)-n], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageToCopiesOut covers the copy-out salvage behind cdcinspect
// salvage -o: the torn source run is left byte-for-byte as it was, and the
// copy is a complete, Salvaged run whose rebuilt index and decoded events
// match the report.
func TestSalvageToCopiesOut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	newRun(t, dir, 2, 18, false)
	tear(t, rankPath(dir, 1), 20)
	var before [][]byte
	for _, name := range []string{store.ManifestName, "rank0000.cdc", "rank0001.cdc"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, buf)
	}

	if _, err := dirstore.SalvageTo(dir, dir); err == nil {
		t.Fatal("salvaged a run onto itself")
	}
	out := filepath.Join(t.TempDir(), "copy")
	report, err := dirstore.SalvageTo(dir, out)
	if err != nil {
		t.Fatal(err)
	}
	if kept, _ := report.Events(); kept == 0 || kept >= 2*18 || !report.Ranks[1].Truncated {
		t.Fatalf("salvage kept %d of %d recorded events, rank 1 truncated %v; want a torn rank 1 trimmed to a non-empty prefix",
			kept, 2*18, report.Ranks[1].Truncated)
	}

	for i, name := range []string{store.ManifestName, "rank0000.cdc", "rank0001.cdc"} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(buf, before[i]) {
			t.Fatalf("copy-out salvage changed the source %s (%v)", name, err)
		}
	}
	st := dirstore.New(out)
	m, err := store.Open(st, "x", 2)
	if err != nil {
		t.Fatalf("salvaged copy does not open: %v", err)
	}
	if !m.Salvaged {
		t.Fatal("salvaged copy not marked Salvaged")
	}
	for r, rs := range report.Ranks {
		rec, err := store.LoadRank(st, r)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for _, chunks := range rec.Chunks {
			for _, c := range chunks {
				got += c.NumMatched
			}
		}
		if got != rs.EventsKept || m.LastCut(r).Events != rs.EventsKept {
			t.Fatalf("rank %d: copy decodes %d events and indexes %d, report kept %d",
				r, got, m.LastCut(r).Events, rs.EventsKept)
		}
	}
}

func TestSalvageAllAdoptsOrphanedSwap(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "acme", "run1")
	newRun(t, dir, 1, 12, false)
	tear(t, rankPath(dir, 0), 7)

	// Simulate a recovery that crashed between removing the damaged run
	// and renaming the salvaged copy into place.
	if _, err := dirstore.SalvageTo(dir, dir+store.SalvageTmpSuffix); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	results, err := dirstore.OpenRoot(root).SalvageAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Adopted || results[0].Err != nil {
		t.Fatalf("orphaned swap not adopted: %+v", results)
	}
	if _, err := store.Open(dirstore.New(dir), "x", 1); err != nil {
		t.Fatalf("adopted run does not open: %v", err)
	}
}

// rcv identifies one application-observed receive: the unique
// (sender, piggyback clock) pair.
type rcv struct {
	src   int
	clock uint64
}

// tapLayer logs every matched receive the application observes, in order.
// It sits below the recorder — the app→recorder frame chain is untouched,
// so MF callsite identification still sees the application's call sites —
// and embeds the lamport layer so the recorder can still sample Clock().
// MCB completes all its receives through Testsome, the only MF it calls.
type tapLayer struct {
	*lamport.Layer
	log *[]rcv
}

func (t *tapLayer) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	idxs, sts, err := t.Layer.Testsome(reqs)
	for _, st := range sts {
		*t.log = append(*t.log, rcv{st.Source, st.Clock})
	}
	return idxs, sts, err
}

// recordCrashedRun records MCB into st under a fault plan killing rank 1
// after kill receives, abandoning each recorder the way a crash would. It
// returns the per-rank application-observed receive logs.
func recordCrashedRun(t *testing.T, st store.Store, params mcb.Params, seed int64, kill uint64) [][]rcv {
	t.Helper()
	const ranks = 4
	if err := st.Create(store.Manifest{Ranks: ranks, App: "mcb"}); err != nil {
		t.Fatal(err)
	}
	recLogs := make([][]rcv, ranks)
	plan := &simmpi.FaultPlan{KillRank: 1, KillAfterReceives: kill}
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: seed, MaxJitter: 8, Faults: plan})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bw, err := st.CreateRank(rank)
		if err != nil {
			return err
		}
		enc, err := core.NewEncoder(bw, core.EncoderOptions{
			Durable: true,
			OnFlushPoint: func(clock, events uint64, offset int64) error {
				return bw.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
			},
		})
		if err != nil {
			bw.Close()
			return err
		}
		tap := &tapLayer{Layer: lamport.Wrap(mpi), log: &recLogs[rank]}
		rec := record.New(tap, baseline.NewCDC(enc), record.Options{FlushEveryRows: 16})
		_, rerr := mcb.Run(rec, params)
		if rerr == nil {
			// This rank outran the fault; close cleanly (the run as a whole
			// is still incomplete — Finalize is never called).
			if err := rec.Close(); err != nil {
				return err
			}
			return bw.Close()
		}
		rec.Abandon()
		bw.Close()
		if errors.Is(rerr, simmpi.ErrKilled) || errors.Is(rerr, simmpi.ErrAborted) {
			return nil
		}
		return rerr
	})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if !w.Aborted() {
		t.Fatal("fault plan did not kill rank 1")
	}
	return recLogs
}

// TestKillARankSalvageReplay is the crash-consistency pipeline end to end
// through the store API: record MCB under a fault plan that kills one rank
// mid-run, salvage the torn run in place, replay the salvaged record with
// cdc.Replay on two different networks, and require each rank's replayed receive order to
// match the crashed run's observed order through the entire salvaged
// prefix.
func TestKillARankSalvageReplay(t *testing.T) {
	const ranks = 4
	params := mcb.Params{Particles: 150, TimeSteps: 2, Seed: 11, CrossProb: 0.4}
	st := dirstore.New(filepath.Join(t.TempDir(), "record"))

	// A crash that lands before some rank durably flushed anything salvages
	// nothing — the consistent frontier is the minimum across ranks, exactly
	// like a coordinated checkpoint. That placement is a scheduling accident
	// (likely on a single-CPU box), so re-roll the crash until it lands
	// somewhere salvageable; the ordering property is checked wherever it
	// lands.
	var recLogs [][]rcv
	var report *store.SalvageReport
	var kept, total uint64
	for attempt := 0; attempt < 6; attempt++ {
		recLogs = recordCrashedRun(t, st, params, 5+int64(attempt), 90+60*uint64(attempt))
		var err error
		report, err = st.Salvage()
		if err != nil {
			t.Fatalf("salvage: %v", err)
		}
		kept, total = report.Events()
		for _, rs := range report.Ranks {
			t.Logf("attempt %d rank %d: kept %d/%d segments, %d/%d events, frontier %d, torn=%v %s",
				attempt, rs.Rank, rs.SegmentsKept, rs.SegmentsTotal, rs.EventsKept, rs.EventsTotal,
				rs.Frontier, rs.Truncated, rs.Damage)
		}
		if kept > 0 {
			break
		}
	}
	if kept == 0 {
		t.Fatalf("no crash placement salvaged any events (last run recorded %d)", total)
	}
	t.Logf("salvaged %d of %d events", kept, total)

	// Replay the salvaged prefix on two different networks. The run's
	// Salvaged marker turns on live handback past the crash frontier.
	for _, seed := range []int64{77, 78} {
		repLogs := make([][]rcv, ranks)
		w2 := simmpi.NewWorld(ranks, simmpi.Options{Seed: seed, MaxJitter: 8})
		rep, err := cdc.Replay(w2, func(rank int, mpi simmpi.MPI) error {
			_, err := mcb.Run(mpi, params)
			return err
		}, cdc.WithStore(st), cdc.WithApp("mcb"), cdc.WithOnRelease(func(rank int, st simmpi.Status) {
			repLogs[rank] = append(repLogs[rank], rcv{st.Source, st.Clock})
		}))
		if err != nil {
			t.Fatalf("replay run (seed %d): %v", seed, err)
		}
		var liveTotal uint64
		for _, rr := range rep.Ranks {
			liveTotal += rr.Stats.LiveReleases
		}
		if liveTotal == 0 {
			t.Errorf("replay (seed %d) never went live past the crash frontier", seed)
		}

		// The replayed order must reproduce the crashed run's observed order
		// through the whole salvaged prefix, rank by rank.
		for r := 0; r < ranks; r++ {
			n := int(report.Ranks[r].EventsKept)
			if len(recLogs[r]) < n || len(repLogs[r]) < n {
				t.Fatalf("seed %d rank %d: logs shorter than salvaged prefix: recorded %d, replayed %d, want >= %d",
					seed, r, len(recLogs[r]), len(repLogs[r]), n)
			}
			for i := 0; i < n; i++ {
				if repLogs[r][i] != recLogs[r][i] {
					t.Fatalf("seed %d rank %d: receive %d/%d diverged: recorded %+v, replayed %+v",
						seed, r, i, n, recLogs[r][i], repLogs[r][i])
				}
			}
		}
	}
}
