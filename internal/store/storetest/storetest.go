// Package storetest is the backend-conformance suite for store.Store
// implementations. A backend package's tests hand Run a factory producing
// fresh empty stores and the suite exercises the whole contract: manifest
// lifecycle atomicity, chunk-index round trips, seek-decode at committed
// cuts on seekable backends, epoch-pinned readers racing a live writer
// (run it under -race), append-resume accounting, and crash-salvage
// through the DST P4 property. On-disk backends also hand RunRoot a
// store.Root factory, which checks the multi-run salvage sweep.
package storetest

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cdcreplay/internal/core"
	"cdcreplay/internal/dst"
	"cdcreplay/internal/store"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// Factory returns a fresh, empty store. Each call must be independent
// storage (the suite creates several runs); cleanup goes through t.
type Factory func(t *testing.T) store.Store

// Run drives the full conformance suite against stores from factory.
func Run(t *testing.T, factory Factory) {
	t.Run("ManifestLifecycle", func(t *testing.T) { testManifestLifecycle(t, factory(t)) })
	t.Run("RecordRoundTrip", func(t *testing.T) { testRecordRoundTrip(t, factory(t)) })
	t.Run("ReplayWhileRecording", func(t *testing.T) { testReplayWhileRecording(t, factory(t)) })
	t.Run("AppendResume", func(t *testing.T) { testAppendResume(t, factory(t)) })
	t.Run("CrashSalvage", func(t *testing.T) {
		for _, seed := range []int64{3, 11, 42} {
			if err := dst.RunCrashSalvage(seed, factory(t)); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	})
}

// testManifestLifecycle checks Create/WriteManifest/Finalize/Reopen keep
// the manifest consistent and stamped with the backend's layout.
func testManifestLifecycle(t *testing.T, st store.Store) {
	if err := st.Create(store.Manifest{Ranks: 2, App: "conf", Params: map[string]string{"k": "v"}}); err != nil {
		t.Fatal(err)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Ranks != 2 || m.App != "conf" || m.Params["k"] != "v" {
		t.Fatalf("created manifest = %+v", m)
	}
	if m.Complete {
		t.Fatal("fresh run already complete")
	}
	if m.Layout != st.Layout() {
		t.Fatalf("manifest layout %q, store layout %q", m.Layout, st.Layout())
	}
	if m.SeekableCuts != st.Seekable() {
		t.Fatalf("manifest seekable %v, store seekable %v", m.SeekableCuts, st.Seekable())
	}
	m.Params["k2"] = "v2"
	if err := st.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
	if m, err = st.Manifest(); err != nil || m.Params["k2"] != "v2" {
		t.Fatalf("republished manifest lost params: %+v, %v", m, err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	if m, err = st.Manifest(); err != nil || !m.Complete {
		t.Fatalf("finalized manifest not complete: %+v, %v", m, err)
	}
	prev, err := st.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if !prev.Complete {
		t.Fatal("Reopen must return the manifest as it was before clearing")
	}
	if m, err = st.Manifest(); err != nil || m.Complete {
		t.Fatalf("reopened run still complete: %+v, %v", m, err)
	}
}

// testRecordRoundTrip records a deterministic multi-rank workload through
// the store and checks the committed chunk index describes the blobs: one
// monotone entry per epoch, offsets bounded by the blob, every rank
// decodable — and on seekable backends, every committed offset a
// random-access decode point.
func testRecordRoundTrip(t *testing.T, st store.Store) {
	if err := dst.DeterministicRecordTo("exchange", 1, true, core.EncoderOptions{ChunkEvents: 64}, st); err != nil {
		t.Fatal(err)
	}
	m, err := store.Open(st, "dst-exchange", 0)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < m.Ranks; rank++ {
		idx := m.RankIndex(rank)
		if len(idx) == 0 {
			t.Fatalf("rank %d: no committed index entries", rank)
		}
		var prev store.IndexEntry
		for i, e := range idx {
			if e.Epoch != i+1 {
				t.Fatalf("rank %d entry %d: epoch %d, want %d", rank, i, e.Epoch, i+1)
			}
			if e.Clock < prev.Clock || e.Events < prev.Events || e.Offset <= prev.Offset {
				t.Fatalf("rank %d entry %d not monotone: %+v after %+v", rank, i, e, prev)
			}
			prev = e
		}
		r, err := st.RawRank(rank)
		if err != nil {
			t.Fatal(err)
		}
		if last := idx[len(idx)-1]; last.Offset > r.Size() {
			t.Fatalf("rank %d: committed offset %d beyond blob size %d", rank, last.Offset, r.Size())
		}
		rec, err := store.LoadRank(st, rank)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if got := matchedEvents(rec); got != idx[len(idx)-1].Events {
			t.Fatalf("rank %d: decoded %d matched events, final cut says %d", rank, got, idx[len(idx)-1].Events)
		}
		if st.Seekable() {
			for i, e := range idx[:len(idx)-1] {
				if err := decodeFrom(r, e.Offset); err != nil {
					t.Fatalf("rank %d: decode from cut %d (offset %d): %v", rank, i+1, e.Offset, err)
				}
			}
		}
		r.Close() //cdc:allow(errsink) read-side close in a test; decode errors already checked above
	}
}

// decodeFrom decodes a blob suffix starting at a committed cut offset,
// which on a seekable backend must be a gzip member boundary.
func decodeFrom(r store.BlobReader, offset int64) error {
	it, err := core.OpenRecordAt(io.NewSectionReader(r, offset, r.Size()-offset))
	if err != nil {
		return err
	}
	defer it.Close() //cdc:allow(errsink) read-side close; decode errors surface from Next
	for {
		if _, err := it.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// matchedEvents sums a decoded record's matched receive events.
func matchedEvents(rec *core.Record) uint64 {
	var n uint64
	for _, chunks := range rec.Chunks {
		for _, c := range chunks {
			n += c.NumMatched
		}
	}
	return n
}

// testReplayWhileRecording is the concurrent-reader stress: one writer
// commits epochs continuously while readers open and decode the same rank.
// Every read must land exactly on a committed epoch line — decoded event
// counts appear in the index and never go backwards — and no read may see
// torn bytes. Run the suite under -race: the test also shakes out unsynced
// manifest/blob state inside the backend.
func testReplayWhileRecording(t *testing.T, st store.Store) {
	const epochs = 40
	if err := st.Create(store.Manifest{Ranks: 1, App: "stress"}); err != nil {
		t.Fatal(err)
	}
	events := workload.Stream(workload.StreamParams{
		Events: epochs * 30, Senders: 1, Disorder: 3, UnmatchedProb: 0.2, Seed: 17,
	})

	done := make(chan struct{})
	writerErr := make(chan error, 1)
	go func() {
		defer close(done)
		writerErr <- writeEpochs(st, events, epochs)
	}()

	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := pinnedEvents(st)
				if err != nil {
					t.Errorf("pinned read: %v", err)
					return
				}
				if got < lastSeen {
					t.Errorf("committed frontier went backwards: %d after %d", got, lastSeen)
					return
				}
				lastSeen = got
				m, err := st.Manifest()
				if err != nil {
					t.Errorf("manifest mid-record: %v", err)
					return
				}
				if !indexContains(m.RankIndex(0), got) {
					t.Errorf("decoded %d matched events, which is no committed cut", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-writerErr; err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := pinnedEvents(st)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.Manifest()
	if want := m.LastCut(0).Events; got != want {
		t.Fatalf("final decode saw %d matched events, final cut says %d", got, want)
	}
}

// writeEpochs streams events into rank 0 in epochs bursts, committing a
// cut after each.
func writeEpochs(st store.Store, events []tables.Event, epochs int) error {
	w, err := st.CreateRank(0)
	if err != nil {
		return err
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents: 64, SeekableCuts: st.Seekable(),
		OnFlushPoint: func(clock, ev uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: ev, Offset: offset})
		},
	})
	if err != nil {
		w.Close() //cdc:allow(errsink) best-effort cleanup; the encoder error is already propagating
		return err
	}
	per := len(events) / epochs
	var clock uint64
	for i, ev := range events {
		if err := enc.Observe(1, ev); err != nil {
			return err
		}
		if ev.Clock > clock {
			clock = ev.Clock
		}
		if (i+1)%per == 0 {
			if err := enc.FlushAll(clock); err != nil {
				return err
			}
		}
	}
	if err := enc.Close(); err != nil {
		return err
	}
	return w.Close()
}

// pinnedEvents decodes rank 0 through the store's pinning rules and
// returns the matched-event count it saw.
func pinnedEvents(st store.Store) (uint64, error) {
	rec, err := store.LoadRank(st, 0)
	if err != nil {
		return 0, err
	}
	return matchedEvents(rec), nil
}

// indexContains reports whether n is a committed cut's event count (zero
// means the reader pinned before any commit).
func indexContains(idx []store.IndexEntry, n uint64) bool {
	if n == 0 {
		return true
	}
	for _, e := range idx {
		if e.Events == n {
			return true
		}
	}
	return false
}

// testAppendResume finalizes a run, reopens it, appends a second stream
// through AppendRank's resume path, and checks the rebuilt whole: the blob
// decodes end to end, the index counts cumulative events across the
// resume boundary, and RankFrontier lands on the total.
func testAppendResume(t *testing.T, st store.Store) {
	if err := st.Create(store.Manifest{Ranks: 1, App: "resume"}); err != nil {
		t.Fatal(err)
	}
	first := workload.Stream(workload.StreamParams{Events: 300, Senders: 1, Disorder: 2, Seed: 5})
	if err := writeEpochs(st, first, 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}
	n1, err := pinnedEvents(st)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("first stream recorded no matched events")
	}

	if _, err := st.Reopen(); err != nil {
		t.Fatal(err)
	}
	_, clock, err := store.RankFrontier(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	w, resume, err := st.AppendRank(0)
	if err != nil {
		t.Fatal(err)
	}
	if !resume {
		t.Fatal("AppendRank on an existing blob must report resume")
	}
	enc, err := core.NewEncoder(w, core.EncoderOptions{
		ChunkEvents: 64, SeekableCuts: st.Seekable(),
		Resume: true, ResumeClock: clock,
		OnFlushPoint: func(c, ev uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: c, Events: ev, Offset: offset})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	second := workload.Stream(workload.StreamParams{Events: 200, Senders: 1, Disorder: 2, Seed: 6})
	maxClock := clock
	for _, ev := range second {
		// Keep resumed clocks monotone past the first stream's frontier.
		ev.Clock += clock
		if err := enc.Observe(1, ev); err != nil {
			t.Fatal(err)
		}
		if ev.Clock > maxClock {
			maxClock = ev.Clock
		}
	}
	if err := enc.FlushAll(maxClock); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Finalize(); err != nil {
		t.Fatal(err)
	}

	total, err := pinnedEvents(st)
	if err != nil {
		t.Fatalf("decoding across the resume boundary: %v", err)
	}
	var n2 uint64
	for _, ev := range second {
		if ev.Flag {
			n2++
		}
	}
	if total != n1+n2 {
		t.Fatalf("resumed blob decodes %d matched events, want %d + %d", total, n1, n2)
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.LastCut(0).Events; got != total {
		t.Fatalf("final cut counts %d events, blob decodes %d (resume base lost?)", got, total)
	}
}

// RootFactory returns the on-disk multi-run store rooted at dir, which may
// not exist yet. The root suite plants a garbage manifest by hand, so it
// is for file-backed roots only.
type RootFactory func(t *testing.T, dir string) store.Root

// RunRoot drives the salvage-sweep suite against roots from factory: an
// incomplete run is recovered and then opens for replay, a complete run is
// left byte-for-byte untouched, a garbage manifest is skipped with a
// finding without blocking the sweep, a missing root is an empty sweep,
// and a second sweep is a no-op.
func RunRoot(t *testing.T, factory RootFactory) {
	t.Run("RecoversIncompleteRuns", func(t *testing.T) {
		dir := t.TempDir()
		root := factory(t, dir)
		makeRun(t, root, "acme/run1", true)
		want := map[string]uint64{
			"acme/run2":   makeRun(t, root, "acme/run2", false),
			"globex/run1": makeRun(t, root, "globex/run1", false),
		}
		runs := sweep(t, root)
		if len(runs) != 2 || runs[0].Dir != filepath.FromSlash("acme/run2") || runs[1].Dir != filepath.FromSlash("globex/run1") {
			t.Fatalf("sweep = %+v, want acme/run2 then globex/run1 (complete run untouched)", runs)
		}
		for _, rs := range runs {
			name := filepath.ToSlash(rs.Dir)
			if !rs.Salvaged || rs.Err != nil || rs.Report == nil {
				t.Fatalf("run %s not salvaged: %+v", name, rs)
			}
			if kept, _ := rs.Report.Events(); kept != want[name] {
				t.Fatalf("run %s: salvage kept %d events, %d were committed", name, kept, want[name])
			}
			st, err := root.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			m, err := store.Open(st, "sweep", 1)
			if err != nil {
				t.Fatalf("salvaged run %s does not open for replay: %v", name, err)
			}
			if !m.Salvaged {
				t.Fatalf("salvaged run %s not marked Salvaged", name)
			}
			if got, err := pinnedEvents(st); err != nil || got != want[name] {
				t.Fatalf("salvaged run %s decodes %d events (%v), want %d", name, got, err, want[name])
			}
		}
	})
	t.Run("LeavesCompleteRuns", func(t *testing.T) {
		dir := t.TempDir()
		root := factory(t, dir)
		makeRun(t, root, "acme/run1", true)
		before := snapshot(t, dir)
		if runs := sweep(t, root); len(runs) != 0 {
			t.Fatalf("sweep of a complete run reported %+v", runs)
		}
		sameFiles(t, before, snapshot(t, dir))
	})
	t.Run("SkipsGarbageManifest", func(t *testing.T) {
		dir := t.TempDir()
		root := factory(t, dir)
		garbage := filepath.Join(dir, "acme", "garbage")
		if err := os.MkdirAll(garbage, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(garbage, store.ManifestName), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		makeRun(t, root, "acme/run1", false)
		runs := sweep(t, root)
		if len(runs) != 2 {
			t.Fatalf("sweep = %+v, want the garbage finding and the salvaged run", runs)
		}
		if rs := runs[0]; !rs.Skipped || rs.Finding == "" || rs.Err != nil {
			t.Errorf("garbage manifest not skipped with a finding: %+v", rs)
		}
		if rs := runs[1]; !rs.Salvaged || rs.Err != nil {
			t.Errorf("garbage manifest blocked the sweep: %+v", rs)
		}
	})
	t.Run("MissingRoot", func(t *testing.T) {
		if runs := sweep(t, factory(t, filepath.Join(t.TempDir(), "nonexistent"))); len(runs) != 0 {
			t.Fatalf("missing root swept %+v, want an empty sweep", runs)
		}
	})
	t.Run("SecondSweepNoop", func(t *testing.T) {
		dir := t.TempDir()
		root := factory(t, dir)
		makeRun(t, root, "acme/run1", false)
		if runs := sweep(t, root); len(runs) != 1 || !runs[0].Salvaged {
			t.Fatalf("first sweep = %+v", runs)
		}
		before := snapshot(t, dir)
		if runs := sweep(t, root); len(runs) != 0 {
			t.Fatalf("second sweep = %+v, want nothing to do", runs)
		}
		sameFiles(t, before, snapshot(t, dir))
	})
}

// makeRun records a one-rank run of committed epochs at name and
// finalizes it when complete is set; an unfinalized run is what a crash
// leaves. It returns the committed matched-event count.
func makeRun(t *testing.T, root store.Root, name string, complete bool) uint64 {
	t.Helper()
	st, err := root.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Create(store.Manifest{Ranks: 1, App: "sweep"}); err != nil {
		t.Fatal(err)
	}
	events := workload.Stream(workload.StreamParams{Events: 160, Senders: 1, Disorder: 2, Seed: 9})
	if err := writeEpochs(st, events, 4); err != nil {
		t.Fatal(err)
	}
	if complete {
		if err := st.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	n, err := pinnedEvents(st)
	if err != nil || n == 0 {
		t.Fatalf("run %s: committed %d events (%v)", name, n, err)
	}
	return n
}

// sweep runs one SalvageAll, failing on a sweep-level or per-run error.
func sweep(t *testing.T, root store.Root) []store.RunSalvage {
	t.Helper()
	runs, err := root.SalvageAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range runs {
		if rs.Err != nil {
			t.Fatalf("run %s: %v", rs.Dir, rs.Err)
		}
	}
	return runs
}

// snapshot reads every file under dir, keyed by path relative to dir.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		buf, err := os.ReadFile(path)
		files[store.RelOrSelf(dir, path)] = buf
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// sameFiles fails unless two snapshots hold the same files and bytes.
func sameFiles(t *testing.T, before, after map[string][]byte) {
	t.Helper()
	if len(before) != len(after) {
		t.Fatalf("sweep changed the file set: %d files before, %d after", len(before), len(after))
	}
	for path, buf := range before {
		if !bytes.Equal(buf, after[path]) {
			t.Fatalf("sweep changed %s", path)
		}
	}
}
