package dirstore_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/tables"
)

// rankPath spells out the on-disk rank file name independently of the
// package, so a rename of the layout's files fails these tests.
func rankPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.cdc", rank))
}

// writeRank records events matched receives into rank's file, flushing a
// mark every flushEvery events (0: only at Close).
func writeRank(t *testing.T, st *dirstore.DirStore, rank, events, flushEvery int) {
	t.Helper()
	w, err := st.CreateRank(rank)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		if err := enc.Observe(0, tables.Matched(0, uint64(i+1), false)); err != nil {
			t.Fatal(err)
		}
		if flushEvery > 0 && (i+1)%flushEvery == 0 {
			if err := enc.FlushAll(uint64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// newRun creates a run of the given ranks under dir, each rank holding
// events matched receives.
func newRun(t *testing.T, dir string, ranks, events int, complete bool) *dirstore.DirStore {
	t.Helper()
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: ranks, App: "x"}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		writeRank(t, st, r, events, 4)
	}
	if complete {
		if err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestCreateOpenRoundTrip(t *testing.T) {
	st := dirstore.New(t.TempDir())
	m := store.Manifest{Ranks: 3, App: "mcb", Params: map[string]string{"particles": "100"}}
	if err := st.Create(m); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		writeRank(t, st, r, 5, 0)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := store.Open(st, "mcb", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != 3 || got.App != "mcb" || got.Params["particles"] != "100" {
		t.Fatalf("manifest = %+v", got)
	}
	rec, err := store.LoadRank(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chunks) == 0 {
		t.Fatal("rank record empty")
	}
}

// TestReopenClearsComplete pins Reopen's append contract: it reports the
// manifest as it was, and the run is refused until finalized again.
func TestReopenClearsComplete(t *testing.T) {
	st := newRun(t, t.TempDir(), 1, 8, true)
	prev, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Complete {
		t.Fatal("Reopen should report the prior manifest, which was complete")
	}
	if _, err := store.Open(st, "x", 1); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("reopened run: err = %v, want ErrIncomplete", err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "x", 1); err != nil {
		t.Fatalf("finalized-again run should open: %v", err)
	}
}

func TestOpenRejectsMismatches(t *testing.T) {
	st := newRun(t, t.TempDir(), 2, 1, true)
	if _, err := store.Open(st, "jacobi", 2); err == nil || !strings.Contains(err.Error(), "app") {
		t.Fatalf("wrong-app err = %v", err)
	}
	if _, err := store.Open(st, "x", 4); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("wrong-rank err = %v", err)
	}
	if _, err := store.Open(dirstore.New(t.TempDir()), "", 0); err == nil {
		t.Fatal("opened a non-record directory")
	}
}

func TestOpenDetectsMissingRankFile(t *testing.T) {
	st := dirstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	writeRank(t, st, 0, 1, 0) // rank 1 missing
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("err = %v", err)
	}
}

// TestOpenRefusesIncompleteRecord covers the crash window between Create
// and Finalize: however far the record run got — manifest only, or all
// rank files written but not finalized — Open must refuse the run.
func TestOpenRefusesIncompleteRecord(t *testing.T) {
	st := dirstore.New(t.TempDir())
	if err := st.Create(store.Manifest{Ranks: 1, App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("fresh run: err = %v, want ErrIncomplete", err)
	}
	writeRank(t, st, 0, 3, 0)
	if _, err := store.Open(st, "", 0); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("all ranks written, not finalized: err = %v, want ErrIncomplete", err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); err != nil {
		t.Fatalf("finalized run refused: %v", err)
	}
}

// TestCrashDuringCreateNeverYieldsCompleteManifest simulates the
// fault-injected crash the manifest protocol must survive: a record run
// that dies before its first flush. Whatever partial state exists on disk
// — including a torn temp manifest left beside the real one — Open must
// not accept the run as a complete record.
func TestCrashDuringCreateNeverYieldsCompleteManifest(t *testing.T) {
	dir := t.TempDir()
	st := dirstore.New(dir)
	if err := st.Create(store.Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	// Crash point: a rank file created but never written.
	w, err := st.CreateRank(0)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	// A torn manifest temp file from an interrupted manifest write.
	if err := os.WriteFile(filepath.Join(dir, store.ManifestName+".tmp123"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(st, "", 0); !errors.Is(err, store.ErrIncomplete) {
		t.Fatalf("crashed record opened as complete: err = %v", err)
	}
}

func TestCreateRemovesStaleRankFiles(t *testing.T) {
	dir := t.TempDir()
	st := newRun(t, dir, 3, 1, false)
	// Re-record with fewer ranks: the old rank0002 file must vanish.
	if err := st.Create(store.Manifest{Ranks: 2, App: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(rankPath(dir, 2)); !os.IsNotExist(err) {
		t.Fatalf("stale rank file survived: %v", err)
	}
}

func TestCreateRejectsBadManifest(t *testing.T) {
	if err := dirstore.New(t.TempDir()).Create(store.Manifest{Ranks: 0}); err == nil {
		t.Fatal("accepted zero ranks")
	}
}

func TestOpenRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.ManifestName), []byte(`{"version":99,"ranks":1,"app":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dirstore.New(dir), "", 0); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
}

// TestAppendRankAndFrontier checks the resume path the ingest daemon
// takes after a restart: RankFrontier counts every logical event (matched
// receives and each aggregated failed test) and the last flush clock,
// AppendRank resumes a non-empty rank file and starts a missing one
// fresh, and a rank that never wrote is an empty frontier.
func TestAppendRankAndFrontier(t *testing.T) {
	st := newRun(t, t.TempDir(), 1, 10, true)
	events, clock, err := store.RankFrontier(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events != 10 {
		t.Fatalf("frontier events = %d, want 10", events)
	}
	if clock == 0 {
		t.Fatal("frontier clock = 0, want last flush-mark clock")
	}

	w, resume, err := st.AppendRank(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resume {
		t.Fatal("existing rank file should resume")
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{Resume: true, ResumeClock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := enc.Observe(0, tables.Matched(0, clock+uint64(i+1), false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Observe(0, tables.Unmatched(2)); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	events2, clock2, err := store.RankFrontier(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if events2 != 15 { // 10 + 3 matched + 2 unmatched tests
		t.Fatalf("frontier after append = %d, want 15", events2)
	}
	if clock2 < clock+3 {
		t.Fatalf("frontier clock after append = %d, want >= %d", clock2, clock+3)
	}

	// A fresh rank takes the non-resume path.
	w2, resume2, err := st.AppendRank(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if resume2 {
		t.Fatal("fresh rank file should not resume")
	}
	if ev0, _, err := store.RankFrontier(st, 2); err != nil || ev0 != 0 {
		t.Fatalf("missing rank frontier = %d,%v want 0,nil", ev0, err)
	}
}
