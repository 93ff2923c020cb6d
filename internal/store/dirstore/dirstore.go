// Package dirstore is the store.Store backend for the flat
// directory-per-run layout, and the one engine for that layout's bytes:
// one rankNNNN.cdc file per rank beside manifest.json, byte-compatible
// with records written before the Store API (pinned by
// TestDirstoreByteCompatGolden). On top of the layout it adds the Store
// contract: per-epoch index commits into the manifest and epoch-pinned
// concurrent readers.
//
// The manifest doubles as the run's commit record: Create writes it
// atomically (temp file + rename + directory fsync) with Complete unset,
// and Finalize flips Complete after every rank closed cleanly. A crash at
// any point therefore leaves either no manifest or one that says the run
// did not finish — store.Open refuses such a run and points the operator
// at salvage instead of silently replaying a torn record.
//
// Cuts are non-seekable here (gzip sync flush, not member boundaries), so
// the record bytes stay identical to historical records; index offsets
// still bound pinned reads exactly.
package dirstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"cdcreplay/internal/store"
)

// DirStore is one run in the dir layout. The zero value is unusable; use
// New. Safe for one writer per rank plus concurrent readers in-process.
type DirStore struct {
	dir string
	// mu serializes the manifest read-modify-write that Commit performs:
	// rank writers run on their own goroutines but share the one manifest
	// file.
	mu sync.Mutex
}

// New returns the run store rooted at dir. Nothing is touched until
// Create (recording) or a read method (replay).
func New(dir string) *DirStore { return &DirStore{dir: dir} }

// Dir exposes the underlying directory for operator-facing messages.
func (s *DirStore) Dir() string { return s.dir }

// Layout reports store.LayoutDir.
func (s *DirStore) Layout() string { return store.LayoutDir }

// Seekable reports false: cuts are gzip sync flushes, byte-compatible with
// pre-Store records, so index offsets are pin bounds but not seek targets.
func (s *DirStore) Seekable() bool { return false }

// Manifest returns the current manifest.
func (s *DirStore) Manifest() (store.Manifest, error) {
	return store.ReadManifestFile(s.dir)
}

// Create initializes the run directory (see create) and stamps the
// layout into the manifest.
func (s *DirStore) Create(m store.Manifest) error {
	m.Layout = store.LayoutDir
	m.SeekableCuts = false
	_, err := create(s.dir, m)
	return err
}

// WriteManifest republishes m atomically.
func (s *DirStore) WriteManifest(m store.Manifest) error {
	return store.WriteManifestFile(s.dir, m)
}

// Finalize marks the run complete. Call it only after every rank's record
// file has been written and closed cleanly.
func (s *DirStore) Finalize() error {
	m, err := s.Manifest()
	if err != nil {
		return err
	}
	m.Complete = true
	return store.WriteManifestFile(s.dir, m)
}

// Reopen clears the Complete marker for appending, so a crash while
// appending is caught on the next Open or salvage sweep instead of being
// mistaken for a finished run. The rank files are left untouched. It
// returns the manifest as it was before.
func (s *DirStore) Reopen() (store.Manifest, error) {
	m, err := s.Manifest()
	if err != nil {
		return m, err
	}
	prev := m.Clone()
	m.Complete = false
	return prev, store.WriteManifestFile(s.dir, m)
}

// CreateRank opens rank's record file for writing from scratch.
func (s *DirStore) CreateRank(rank int) (store.BlobWriter, error) {
	f, err := os.Create(rankPath(s.dir, rank))
	if err != nil {
		return nil, err
	}
	return &blobWriter{s: s, f: f, rank: rank}, nil
}

// AppendRank opens rank's record file for appending, creating it if
// absent; resume reports the file already had content. The writer's
// commit base is the existing size and the last committed entry's
// cumulative events, so resumed cuts index the whole blob, not just the
// new tail.
func (s *DirStore) AppendRank(rank int) (store.BlobWriter, bool, error) {
	f, err := os.OpenFile(rankPath(s.dir, rank), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the stat error is already propagating
		return nil, false, err
	}
	bw := &blobWriter{s: s, f: f, rank: rank}
	resume := fi.Size() > 0
	if resume {
		bw.baseOffset = fi.Size()
		m, err := s.Manifest()
		if err != nil {
			f.Close() //cdc:allow(errsink) best-effort cleanup; the manifest error is already propagating
			return nil, false, err
		}
		bw.baseEvents = m.LastCut(rank).Events
	}
	return bw, resume, nil
}

// OpenRank opens rank's blob for reading, pinned to the last committed
// index offset when the run is incomplete (the concurrent-reader rule:
// never hand out bytes past the committed epoch line).
func (s *DirStore) OpenRank(rank int) (store.BlobReader, error) {
	m, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(rankPath(s.dir, rank))
	if err != nil {
		if !m.Complete && errors.Is(err, fs.ErrNotExist) {
			// The writer has not created the blob yet; readers of a live
			// run see the empty committed prefix, not a missing-file error.
			return store.EmptyBlob(), nil
		}
		return nil, err
	}
	size := int64(0)
	if m.Complete {
		fi, err := f.Stat()
		if err != nil {
			f.Close() //cdc:allow(errsink) best-effort cleanup; the stat error is already propagating
			return nil, err
		}
		size = fi.Size()
	} else {
		size = m.LastCut(rank).Offset
	}
	return &fileBlob{SectionReader: io.NewSectionReader(f, 0, size), f: f}, nil
}

// RawRank opens rank's full blob, torn tail included (the salvage and
// frontier-scan view). A rank that never wrote yields fs.ErrNotExist.
func (s *DirStore) RawRank(rank int) (store.BlobReader, error) {
	f, err := os.Open(rankPath(s.dir, rank))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the stat error is already propagating
		return nil, err
	}
	return &fileBlob{SectionReader: io.NewSectionReader(f, 0, fi.Size()), f: f}, nil
}

// Salvage recovers an incomplete run in place to a consistent cross-rank
// prefix (see SalvageTo) with a crash-safe sibling swap:
//
//  1. the salvaged prefix is written to <run>.salvaged (a stale one from an
//     earlier interrupted recovery is removed first),
//  2. the damaged run directory is removed,
//  3. <run>.salvaged is renamed over the run's path.
//
// A crash before step 2 leaves the damaged run intact, and the next
// salvage redoes the work; a crash between steps 2 and 3 leaves only
// <run>.salvaged, which the next Root.SalvageAll adopts by finishing the
// rename. Complete runs are untouched (nil report).
func (s *DirStore) Salvage() (*store.SalvageReport, error) {
	m, err := s.Manifest()
	if err != nil || m.Complete {
		return nil, err
	}
	tmp := s.dir + store.SalvageTmpSuffix
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	report, err := SalvageTo(s.dir, tmp)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, s.dir); err != nil {
		return nil, err
	}
	// The swap is only durable once the parent directory's entries are.
	if err := store.SyncDir(filepath.Dir(s.dir)); err != nil {
		return nil, err
	}
	return report, nil
}

// SalvageTo recovers a replayable prefix of the dir-layout run at dir into
// the fresh run directory outDir, leaving dir untouched (cdcinspect
// salvage -o). The segment scan and the cross-rank trim are
// store.PlanSalvage; SalvageTo re-emits the kept frames into outDir's rank
// files and publishes the manifest with Complete and Salvaged set and the
// chunk index rebuilt as one final cut per rank. Replayers see Salvaged
// and switch to replay-to-crash-point mode. A run of another layout is
// refused: its blobs are not rank files, so the copy would hold nothing.
func SalvageTo(dir, outDir string) (*store.SalvageReport, error) {
	if filepath.Clean(dir) == filepath.Clean(outDir) {
		return nil, errors.New("dirstore: salvage output must be a different directory")
	}
	m, err := store.ReadManifestFile(dir)
	if err != nil {
		return nil, err
	}
	if l := m.EffectiveLayout(); l != store.LayoutDir {
		return nil, fmt.Errorf("dirstore: %s: layout %q is not %q", dir, l, store.LayoutDir)
	}
	plan, err := store.PlanSalvage(m, func(rank int) (io.ReadCloser, error) {
		return os.Open(rankPath(dir, rank))
	})
	if err != nil {
		return nil, err
	}
	if m, err = create(outDir, m); err != nil {
		return nil, err
	}
	for r := 0; r < m.Ranks; r++ {
		size, lastClock, err := writeRankPrefix(outDir, r, plan.Keep[r])
		if err != nil {
			return nil, fmt.Errorf("dirstore: writing salvaged rank %d: %w", r, err)
		}
		m.AppendIndex(r, store.IndexEntry{
			Clock:  lastClock,
			Events: plan.Report.Ranks[r].EventsKept,
			Offset: size,
		})
	}
	m.Complete = true
	m.Salvaged = true
	if err := store.WriteManifestFile(outDir, m); err != nil {
		return nil, err
	}
	return plan.Report, nil
}

// writeRankPrefix re-emits the kept frames verbatim into a fresh record
// file (re-framed, so the new file is itself cleanly closed), reporting
// its size and closing clock for the rebuilt index. The file is synced
// before it is closed: SalvageTo publishes a Complete manifest over it
// next, and that manifest must never outlive the rank data it indexes.
func writeRankPrefix(dir string, rank int, segs []*store.Segment) (size int64, lastClock uint64, err error) {
	f, err := os.Create(rankPath(dir, rank))
	if err != nil {
		return 0, 0, err
	}
	size, lastClock, err = store.WriteSegments(f, segs)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close() //cdc:allow(errsink) best-effort cleanup; the write or sync error is already propagating
		return size, lastClock, err
	}
	return size, lastClock, f.Close()
}

// rankPath returns the record file path for a rank.
func rankPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.cdc", rank))
}

// create prepares dir (creating it if needed) and writes m as an
// incomplete manifest, returning what it wrote. Rank files from an earlier
// record are removed so a shorter re-record cannot leave stale ranks
// behind, and any stale chunk index or shard map is dropped with them.
func create(dir string, m store.Manifest) (store.Manifest, error) {
	if m.Ranks <= 0 {
		return m, fmt.Errorf("dirstore: manifest needs a positive rank count, got %d", m.Ranks)
	}
	m.Version = store.ManifestVersion
	m.Complete = false
	m.Index = nil
	m.Shards = nil
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return m, err
	}
	old, err := filepath.Glob(filepath.Join(dir, "rank*.cdc"))
	if err != nil {
		return m, err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return m, err
		}
	}
	return m, store.WriteManifestFile(dir, m)
}

// commit appends one absolute index entry and republishes the manifest.
func (s *DirStore) commit(rank int, e store.IndexEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, err := store.ReadManifestFile(s.dir)
	if err != nil {
		return err
	}
	m.AppendIndex(rank, e)
	return store.WriteManifestFile(s.dir, m)
}

// blobWriter is one rank's append stream: writes go straight to the file,
// Commit translates the encoder's writer-relative cut to blob-absolute
// coordinates and publishes it.
type blobWriter struct {
	s          *DirStore
	f          *os.File
	rank       int
	baseOffset int64
	baseEvents uint64
}

func (w *blobWriter) Write(p []byte) (int, error) { return w.f.Write(p) }
func (w *blobWriter) Sync() error                 { return w.f.Sync() }
func (w *blobWriter) Close() error                { return w.f.Close() }

func (w *blobWriter) Commit(cut store.Cut) error {
	return w.s.commit(w.rank, store.IndexEntry{
		Clock:  cut.Clock,
		Events: w.baseEvents + cut.Events,
		Offset: w.baseOffset + cut.Offset,
	})
}

// fileBlob is a (possibly pinned) read view of one rank file.
type fileBlob struct {
	*io.SectionReader
	f *os.File
}

func (b *fileBlob) Close() error { return b.f.Close() }

var _ store.Store = (*DirStore)(nil)

// Root is a multi-run dir-layout store (the ingest daemon's record root).
type Root struct{ root string }

// OpenRoot returns the multi-run store rooted at root. A missing root is
// an empty store.
func OpenRoot(root string) *Root { return &Root{root: root} }

// Open returns the run store at name (slash-separated, e.g. tenant/run).
func (r *Root) Open(name string) (store.Store, error) {
	return New(filepath.Join(r.root, filepath.FromSlash(name))), nil
}

// SalvageAll recovers every incomplete dir-layout run under the root in
// place through the shared sweep (store.SalvageRuns), adopting orphaned
// swaps that Salvage left behind; complete runs are untouched, and garbage
// manifests and runs of another layout are skipped with a finding.
func (r *Root) SalvageAll() ([]store.RunSalvage, error) {
	return store.SalvageRuns(r.root, store.LayoutDir, func(dir string) (*store.SalvageReport, error) {
		return New(dir).Salvage()
	})
}

var _ store.Root = (*Root)(nil)
