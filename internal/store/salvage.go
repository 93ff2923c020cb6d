package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/core"
)

// This file holds the backend-independent salvage machinery: scanning a
// damaged blob into flush-point segments, trimming per-rank prefixes to a
// mutually consistent cross-rank frontier, and re-emitting the kept
// frames. Backends own only the byte movement around it (where blobs come
// from, how the recovered run is swapped into place crash-safely).
//
// Per rank, the unit of recovery is the flush-point segment: frames
// between consecutive flush-point marks. A mark is written only when the
// encoder flushed every callsite stream through it, so the segments before
// a mark are a complete cut of the rank's event history; frames past the
// last CRC-valid mark (torn by the crash) are discarded.
//
// Per-rank prefixes are then trimmed to a mutually consistent frontier.
// Let C[s] be the largest received-message clock in rank s's kept prefix
// (infinite when s's whole record survived intact). Any send s made with
// piggyback clock ≤ C[s] necessarily precedes the kept receive achieving
// C[s] — Lamport clocks are monotone within a rank — so a prefix replay of
// s deterministically regenerates it. A kept chunk of rank r is therefore
// only replayable if every epoch-line entry (sender s, clock c) satisfies
// c ≤ C[s]; segments violating this are trimmed, which can lower C[r] and
// cascade, so the trim iterates to a fixed point (it terminates: kept
// prefixes only shrink).

// SalvageReport describes what a salvage recovered.
type SalvageReport struct {
	Ranks []RankSalvage
}

// Events returns the total salvaged matched-event count across ranks.
func (r *SalvageReport) Events() (kept, total uint64) {
	for _, rs := range r.Ranks {
		kept += rs.EventsKept
		total += rs.EventsTotal
	}
	return kept, total
}

// RankSalvage describes one rank's salvage outcome.
type RankSalvage struct {
	Rank int
	// Truncated reports the rank's record blob was damaged or missing;
	// Damage describes how.
	Truncated bool
	Damage    string
	// SegmentsKept of SegmentsTotal flush-point segments survived the
	// CRC scan and the consistency trim.
	SegmentsKept, SegmentsTotal int
	// EventsKept of EventsTotal matched events are in the kept prefix.
	EventsKept, EventsTotal uint64
	// Frontier is the rank's kept-clock frontier C[r]; math.MaxUint64
	// means the whole record survived intact.
	Frontier uint64
}

// RunSalvage is one run's outcome from a Root.SalvageAll sweep.
type RunSalvage struct {
	// Dir is the run's name, relative to the walked root.
	Dir string
	// Salvaged reports the run was incomplete and a consistent prefix was
	// recovered in place; Report describes what survived. False with a
	// nil Err means the run was already complete and was left untouched.
	Salvaged bool
	// Adopted reports a finished salvage from a previous crashed recovery
	// (the swap's rename had not happened yet) was moved into place.
	Adopted bool
	// Skipped reports the run was left untouched because its manifest is
	// unreadable garbage (ErrBadManifest class) or names another backend's
	// layout; Finding says which. A skipped run is a logged finding, not a
	// sweep failure — one damaged tenant must not block every other
	// tenant's recovery.
	Skipped bool
	Finding string
	// Report is the per-rank salvage outcome (nil unless Salvaged).
	Report *SalvageReport
	// Err is the failure for this run; SalvageAll continues past it so one
	// damaged tenant cannot block every other tenant's recovery.
	Err error
}

// Segment is one flush-point segment: the frames up to and including a
// flush mark, with its chunk frames also decoded for frontier math.
// FlushClock is the writing rank's Lamport clock stamped into the closing
// mark — a lower bound on its clock at the cut.
type Segment struct {
	Frames     []*core.Frame
	Chunks     []*cdcformat.Chunk
	FlushClock uint64
}

// Events counts the segment's matched receive events.
func (s *Segment) Events() uint64 {
	var n uint64
	for _, c := range s.Chunks {
		n += c.NumMatched
	}
	return n
}

// ScanSegments scans one record blob into complete flush-point segments,
// dropping any trailing frames not sealed by a mark. clean reports the
// blob ended exactly at a mark with an intact gzip stream; damage
// describes the failure otherwise.
func ScanSegments(r io.Reader) (segs []*Segment, clean bool, damage string) {
	fr, err := core.NewFrameReader(r)
	if err != nil {
		return nil, false, err.Error()
	}
	defer fr.Close() //cdc:allow(errsink) read-side close; scan errors are captured as segment damage
	cur := &Segment{}
	for {
		frame, err := fr.Next()
		if err == io.EOF {
			return segs, len(cur.Frames) == 0, ""
		}
		if err != nil {
			return segs, false, err.Error()
		}
		cur.Frames = append(cur.Frames, frame)
		if frame.Chunk != nil {
			cur.Chunks = append(cur.Chunks, frame.Chunk)
		}
		if frame.Flush {
			cur.FlushClock = frame.FlushClock
			segs = append(segs, cur)
			cur = &Segment{}
		}
	}
}

// SalvagePlan is a computed consistent cut of a crashed run: the per-rank
// kept segments and the report describing them. Backends write Keep[r]
// into their own crash-safe destination (WriteSegments) and record the
// rebuilt single-cut index.
type SalvagePlan struct {
	Report *SalvageReport
	Keep   [][]*Segment
}

// PlanSalvage scans every rank's blob (openRank; a missing blob may return
// fs.ErrNotExist and counts as fully damaged) and trims to the cross-rank
// consistent frontier. It moves no bytes.
func PlanSalvage(m Manifest, openRank func(rank int) (io.ReadCloser, error)) (*SalvagePlan, error) {
	n := m.Ranks
	segs := make([][]*Segment, n)
	report := &SalvageReport{Ranks: make([]RankSalvage, n)}
	clean := make([]bool, n)
	for r := 0; r < n; r++ {
		rs := &report.Ranks[r]
		rs.Rank = r
		blob, err := openRank(r)
		if err != nil {
			segs[r], clean[r], rs.Damage = nil, false, "open: "+err.Error()
		} else {
			segs[r], clean[r], rs.Damage = ScanSegments(blob)
			blob.Close() //cdc:allow(errsink) read-side close of the damaged blob being scanned
		}
		rs.Truncated = !clean[r]
		rs.SegmentsTotal = len(segs[r])
		for _, s := range segs[r] {
			rs.EventsTotal += s.Events()
		}
	}

	// Fixed-point trim to a consistent cross-rank frontier.
	keep := make([]int, n)
	frontiers := make([]uint64, n)
	for r := 0; r < n; r++ {
		keep[r] = len(segs[r])
		frontiers[r] = frontier(segs[r], keep[r], clean[r])
	}
	for changed := true; changed; {
		changed = false
		for r := 0; r < n; r++ {
			if v := firstViolation(segs[r], keep[r], frontiers); v < keep[r] {
				keep[r] = v
				frontiers[r] = frontier(segs[r], keep[r], clean[r])
				changed = true
			}
		}
	}

	plan := &SalvagePlan{Report: report, Keep: make([][]*Segment, n)}
	for r := 0; r < n; r++ {
		rs := &report.Ranks[r]
		rs.SegmentsKept = keep[r]
		rs.Frontier = frontiers[r]
		plan.Keep[r] = segs[r][:keep[r]]
		for _, s := range plan.Keep[r] {
			rs.EventsKept += s.Events()
		}
	}
	return plan, nil
}

// frontier computes C[r] over the kept prefix: the rank's own clock at the
// last kept flush mark (every send with clock ≤ C[r] strictly precedes the
// cut, since the clock ticks at each send), or MaxUint64 for a fully intact
// record (its replay regenerates every send, recorded receives and the
// deterministic continuation alike). Received epoch clocks — a weaker lower
// bound on the same clock — are folded in for records whose marks carry no
// sample.
func frontier(segs []*Segment, keep int, clean bool) uint64 {
	if clean && keep == len(segs) {
		return math.MaxUint64
	}
	var c uint64
	for _, s := range segs[:keep] {
		if s.FlushClock > c {
			c = s.FlushClock
		}
		for _, ch := range s.Chunks {
			for _, e := range ch.EpochLine {
				if e.Clock > c {
					c = e.Clock
				}
			}
		}
	}
	return c
}

// firstViolation returns the index of the first kept segment holding a
// chunk that references a sender clock beyond that sender's frontier, or
// keep when the whole kept prefix is consistent.
func firstViolation(segs []*Segment, keep int, frontiers []uint64) int {
	for i, s := range segs[:keep] {
		for _, ch := range s.Chunks {
			for _, e := range ch.EpochLine {
				if int(e.Rank) < len(frontiers) && e.Clock > frontiers[e.Rank] {
					return i
				}
			}
		}
	}
	return keep
}

// WriteSegments re-emits kept frames verbatim into a fresh record blob
// (magic, one gzip stream, cleanly closed with the last kept flush clock),
// byte-identical to what the pre-Store salvage wrote. It returns the blob
// size and closing clock, which with the plan's EventsKept form the
// salvaged run's single-cut index entry.
func WriteSegments(w io.Writer, segs []*Segment) (n int64, lastClock uint64, err error) {
	fw, err := core.NewFrameWriter(w, 0, false)
	if err != nil {
		return 0, 0, err
	}
	for _, s := range segs {
		for _, frame := range s.Frames {
			if err := fw.WriteFrame(frame.Kind, frame.Payload); err != nil {
				return fw.BytesWritten(), 0, err
			}
		}
		lastClock = s.FlushClock
	}
	if err := fw.Close(lastClock); err != nil {
		return fw.BytesWritten(), lastClock, err
	}
	return fw.BytesWritten(), lastClock, nil
}

// SalvageRuns is the Root.SalvageAll sweep shared by the on-disk
// backends. It walks root (FindRuns) and hands every incomplete run whose
// manifest names layout (Manifest.EffectiveLayout) to salvage, which
// recovers that one run in place.
//
//   - Complete runs are left untouched and unreported.
//   - Unreadable-garbage manifests (ErrBadManifest) and incomplete runs of
//     another layout are Skipped with a finding: salvaging a run with the
//     wrong backend would rewrite it in a shape its own backend cannot
//     read.
//   - An orphaned <run>.salvaged directory (a sibling-swap recovery that
//     crashed after removing the damaged run, before the rename) is
//     Adopted by finishing the rename.
//   - A run's failure is its own Err; the sweep continues past it so one
//     damaged tenant cannot block every other tenant's recovery.
//
// Results are sorted by Dir, so the report order does not depend on the
// filesystem walk order.
func SalvageRuns(root, layout string, salvage func(dir string) (*SalvageReport, error)) ([]RunSalvage, error) {
	dirs, orphans, err := FindRuns(root)
	if err != nil {
		return nil, err
	}
	var out []RunSalvage
	// Adopt orphans first, so an adopted run is then seen as complete.
	for _, tmp := range orphans {
		dst := strings.TrimSuffix(tmp, SalvageTmpSuffix)
		rs := RunSalvage{Dir: RelOrSelf(root, dst), Adopted: true}
		if rs.Err = os.Rename(tmp, dst); rs.Err == nil {
			dirs = append(dirs, dst)
		}
		out = append(out, rs)
	}
	for _, dir := range dirs {
		rs := RunSalvage{Dir: RelOrSelf(root, dir)}
		m, err := ReadManifestFile(dir)
		switch {
		case errors.Is(err, ErrBadManifest):
			rs.Skipped, rs.Finding = true, err.Error()
		case err != nil:
			rs.Err = err
		case m.Complete:
			continue
		case m.EffectiveLayout() != layout:
			rs.Skipped = true
			rs.Finding = fmt.Sprintf("layout %q is not %q; leaving it for its own backend", m.EffectiveLayout(), layout)
		default:
			if rs.Report, rs.Err = salvage(dir); rs.Err != nil {
				rs.Err = fmt.Errorf("store: salvaging %s: %w", dir, rs.Err)
			} else {
				rs.Salvaged = true
			}
		}
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dir < out[j].Dir })
	return out, nil
}

// SalvageTmpSuffix names the sibling directory a crash-safe in-place
// salvage writes into before swapping it over the damaged run.
const SalvageTmpSuffix = ".salvaged"

// FindRuns locates run directories (holding a manifest) and orphaned
// SalvageTmpSuffix directories under root. A missing root is an empty
// store, not an error, so a first daemon start needs no special casing.
func FindRuns(root string) (dirs, orphans []string, err error) {
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == root && errors.Is(err, fs.ErrNotExist) {
				return filepath.SkipAll
			}
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if strings.HasSuffix(path, SalvageTmpSuffix) {
			// Orphaned only when the destination vanished; otherwise it is
			// a stale partial salvage the per-run swap will redo.
			if _, serr := os.Stat(strings.TrimSuffix(path, SalvageTmpSuffix)); errors.Is(serr, fs.ErrNotExist) {
				orphans = append(orphans, path)
			}
			return filepath.SkipDir
		}
		if _, serr := os.Stat(filepath.Join(path, ManifestName)); serr == nil {
			dirs = append(dirs, path)
			return filepath.SkipDir
		}
		return nil
	})
	return dirs, orphans, err
}

// RelOrSelf returns dir relative to root, or dir itself when no relative
// form exists — run names in RunSalvage reports.
func RelOrSelf(root, dir string) string {
	if rel, err := filepath.Rel(root, dir); err == nil {
		return rel
	}
	return dir
}
