// Package cdc is the public facade over the clock-delta-compression
// record/replay pipeline. It owns the session wiring that every tool
// binary would otherwise duplicate: the storage lifecycle
// (create → rank blobs → finalize) behind the pluggable store.Store
// contract, the per-rank tool stack (lamport clock layer → CDC recorder
// or replayer), and result collection across ranks.
//
//	w := simmpi.NewWorld(ranks, simmpi.Options{})
//	rep, err := cdc.Record(w, func(rank int, mpi simmpi.MPI) error {
//	    return app(rank, mpi) // written against simmpi.MPI, tool-oblivious
//	}, cdc.WithDir(dir), cdc.WithApp("myapp"))
//
//	w2 := simmpi.NewWorld(ranks, simmpi.Options{})
//	rrep, err := cdc.Replay(w2, app, cdc.WithDir(dir), cdc.WithApp("myapp"))
//
// Storage is chosen with options: WithDir picks an on-disk run directory
// (layout "dir" by default — one record file per rank, byte-compatible
// with historical records — or "sharded" via WithStoreLayout, which
// fans rank blobs across shard subdirectories with fragment compaction),
// while WithStore plugs any Store implementation directly, including the
// in-memory one. Replay discovers the layout from the manifest, so a
// replayer never states it.
//
// Record writes one record blob per rank plus a manifest; the manifest is
// only marked complete when every rank closed cleanly, so a crashed or
// failed recording is never mistaken for a replayable one. Each flush
// point additionally commits a chunk-index entry (epoch → clock, events,
// blob offset) into the manifest, which is what lets a concurrent reader
// open the run mid-recording pinned to the last committed epoch line.
// Replay validates the manifest (app name, rank count, completeness),
// decodes each rank's record, and releases receive events to the
// application in the recorded order; salvaged records from crashed runs
// replay to the crash frontier and then continue live.
//
// Sessions are configured with functional options (see Option); invalid
// values and invalid combinations fail fast with an *OptionError before
// any file or goroutine is touched.
package cdc

import (
	"errors"
	"fmt"
	"io"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/spsc"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
)

// Store is the pluggable per-run storage contract (see internal/store):
// manifest lifecycle, per-rank blob streams, the per-epoch chunk index,
// and in-place salvage. Pass one to WithStore to run a session against a
// custom backend.
type Store = store.Store

// Manifest is a run's validated metadata (see store.Manifest).
type Manifest = store.Manifest

// Storage layouts accepted by WithStoreLayout.
const (
	// LayoutDir is the flat directory layout: one rankNNNN.cdc file per
	// rank beside manifest.json, byte-compatible with records written
	// before the Store redesign.
	LayoutDir = store.LayoutDir
	// LayoutSharded fans rank blobs across shard subdirectories as
	// compactable fragments, with seekable (gzip-member-aligned) cuts.
	LayoutSharded = store.LayoutSharded
	// LayoutMemory is the in-memory backend's layout name; it is never a
	// valid WithStoreLayout argument (pass a memstore via WithStore) but
	// appears in reports from sessions recorded through one.
	LayoutMemory = store.LayoutMemory
)

// OpenStore opens an existing on-disk run for reading or appending,
// discovering its layout from the manifest — callers never state it and
// never touch layout paths. Records written before layouts existed carry
// none and read as LayoutDir.
func OpenStore(dir string) (Store, error) {
	m, err := store.ReadManifestFile(dir)
	if err != nil {
		return nil, err
	}
	switch l := m.EffectiveLayout(); l {
	case store.LayoutSharded:
		return shardstore.New(dir), nil
	case store.LayoutDir:
		return dirstore.New(dir), nil
	default:
		return nil, fmt.Errorf("cdc: %s: unknown storage layout %q", dir, l)
	}
}

// newRecordStore resolves the session's storage destination for Record.
func (c *config) newRecordStore() Store {
	if c.store != nil {
		return c.store
	}
	if c.layout == store.LayoutSharded {
		return shardstore.New(c.dir)
	}
	return dirstore.New(c.dir)
}

// openReplayStore resolves the session's storage source for Replay.
func (c *config) openReplayStore() (Store, error) {
	if c.store != nil {
		return c.store, nil
	}
	return OpenStore(c.dir)
}

// storeDir names a store's location for reports when it has one.
func storeDir(st Store) string {
	if d, ok := st.(interface{ Dir() string }); ok {
		return d.Dir()
	}
	return ""
}

// App is one rank's application body. It is written against the plain
// simmpi.MPI interface and runs unchanged in plain, record, and replay
// sessions — the tool stack wraps the endpoint it is handed.
type App func(rank int, mpi simmpi.MPI) error

// RankRecord is one rank's recording outcome.
type RankRecord struct {
	// Rank identifies the rank.
	Rank int
	// Queue is the observe-queue throughput measurement (§6.2).
	Queue record.RateStats
	// Encoder aggregates the CDC encoder's row and compression counters.
	Encoder core.Stats
	// Bytes is the rank's encoded record size.
	Bytes int64
}

// RecordReport is what Record returns: per-rank stats plus where the
// record landed.
type RecordReport struct {
	// Dir is the finalized record's directory, when the store has one
	// (empty for in-memory stores).
	Dir string
	// Layout is the record's storage layout.
	Layout string
	// Ranks holds one entry per rank, indexed by rank.
	Ranks []RankRecord
}

// TotalBytes sums the encoded record size across ranks.
func (r *RecordReport) TotalBytes() int64 {
	var n int64
	for _, rr := range r.Ranks {
		n += rr.Bytes
	}
	return n
}

// TotalRows sums the observed record-table rows across ranks.
func (r *RecordReport) TotalRows() uint64 {
	var n uint64
	for _, rr := range r.Ranks {
		n += rr.Encoder.Rows
	}
	return n
}

// Record runs app on every rank of world under the CDC recording stack,
// writing to the store named by WithDir/WithStoreLayout or passed via
// WithStore. The run is finalized (marked complete) only if every rank
// finishes and closes cleanly; on error the manifest stays incomplete, so
// a later Replay refuses it instead of replaying a torn record — but the
// committed epoch line stays readable via OpenStore + pinned reads.
func Record(world *simmpi.World, app App, opts ...Option) (*RecordReport, error) {
	cfg, err := newConfig(modeRecord, opts)
	if err != nil {
		return nil, err
	}
	if app == nil {
		return nil, errors.New("cdc: Record needs a non-nil App")
	}
	// The manifest records the resolved backoff whether or not the caller
	// tuned it, so a recording's latency behaviour is reproducible from the
	// manifest alone.
	backoff := cfg.backoff
	if !cfg.backoffSet {
		backoff = spsc.DefaultBackoff()
	}
	st := cfg.newRecordStore()
	err = st.Create(store.Manifest{
		Ranks:  world.Size(),
		App:    cfg.app,
		Params: cfg.params,
		Spsc: &store.SpscBackoff{
			SpinBeforeYield: backoff.SpinBeforeYield,
			YieldBeforeNap:  backoff.YieldBeforeNap,
			MaxNapNs:        backoff.MaxNap.Nanoseconds(),
		},
	})
	if err != nil {
		return nil, err
	}
	report := &RecordReport{Dir: storeDir(st), Layout: st.Layout(), Ranks: make([]RankRecord, world.Size())}
	err = world.RunRanked(func(rank int, mpi simmpi.MPI) error {
		w, err := st.CreateRank(rank)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		encOpts := core.EncoderOptions{
			ChunkEvents:      cfg.chunkEvents,
			OmitSenderColumn: cfg.omitSenderColumn,
			Durable:          cfg.durable,
			EncodeWorkers:    cfg.encodeWorkers,
			Obs:              cfg.obs,
			SeekableCuts:     st.Seekable(),
			OnFlushPoint: func(clock, events uint64, offset int64) error {
				return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
			},
		}
		if cfg.gzipLevelSet {
			encOpts.GzipLevel = cfg.gzipLevel
		}
		enc, err := core.NewEncoder(w, encOpts)
		if err != nil {
			w.Close()
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		method := baseline.NewCDC(enc)
		rec := record.New(lamport.Wrap(mpi), method, record.Options{
			QueueCapacity:  cfg.queueCapacity,
			DisableMFID:    cfg.disableMFID,
			FlushInterval:  cfg.flushInterval,
			FlushEveryRows: cfg.flushEveryRows,
			Backoff:        backoff,
			Obs:            cfg.obs,
		})
		appErr := app(rank, rec)
		closeErr := rec.Close()
		blobErr := w.Close()
		// Distinct slice indices; safe to write concurrently across ranks.
		report.Ranks[rank] = RankRecord{
			Rank:    rank,
			Queue:   rec.Stats(),
			Encoder: method.Stats(),
			Bytes:   method.BytesWritten(),
		}
		if err := errors.Join(appErr, closeErr, blobErr); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		return nil
	})
	if err != nil {
		return report, err
	}
	if err := st.Finalize(); err != nil {
		return report, err
	}
	return report, nil
}

// RankReplay is one rank's replay outcome.
type RankReplay struct {
	// Rank identifies the rank.
	Rank int
	// Stats counts what the replayer did.
	Stats replay.Stats
	// Live reports that this rank crossed its record's end into live
	// execution; Note says where and why.
	Live bool
	// Note is the replayer's live-handback diagnostic (empty unless Live).
	Note string
}

// ReplayReport is what Replay returns.
type ReplayReport struct {
	// Dir is the replayed record's directory, when the store has one
	// (empty for in-memory stores).
	Dir string
	// Manifest is the validated record manifest.
	Manifest Manifest
	// Salvaged reports that the record is a crash-salvaged prefix, replayed
	// with live continuation past the crash frontier.
	Salvaged bool
	// Ranks holds one entry per rank, indexed by rank.
	Ranks []RankReplay
}

// Live reports whether any rank continued past its record into live
// execution, with every rank's diagnostic note.
func (r *ReplayReport) Live() (bool, []string) {
	var notes []string
	for _, rr := range r.Ranks {
		if rr.Live {
			notes = append(notes, fmt.Sprintf("rank %d: %s", rr.Rank, rr.Note))
		}
	}
	return len(notes) > 0, notes
}

// Released sums released receive events across ranks (replayed order only,
// not live-phase deliveries).
func (r *ReplayReport) Released() uint64 {
	var n uint64
	for _, rr := range r.Ranks {
		n += rr.Stats.Released
	}
	return n
}

// scanRankMeta runs the prescan pass: one streaming decode of rank's
// record, summarized into the RecordMeta a streaming replayer needs.
func scanRankMeta(st Store, rank int, o core.DecoderOptions) (*replay.RecordMeta, error) {
	it, blob, err := store.OpenRankIter(st, rank, o)
	if err != nil {
		return nil, err
	}
	meta, err := replay.ScanRecord(it) // closes it
	return meta, errors.Join(err, blob.Close())
}

// rankSource feeds a streaming replay from a rank blob, extending the
// iterator's Close to release the blob too.
type rankSource struct {
	replay.ChunkSource
	blob io.Closer
}

func (s rankSource) Close() error { return errors.Join(s.ChunkSource.Close(), s.blob.Close()) }

// Replay runs app on every rank of world under the CDC replay stack,
// releasing receive events in the order recorded in the store named by
// WithDir (layout discovered from the manifest) or passed via WithStore.
// Each rank is verified after the application finishes: leftover recorded
// events or unreleased messages fail the replay (unless the rank
// legitimately went live past a salvaged record's crash frontier).
func Replay(world *simmpi.World, app App, opts ...Option) (*ReplayReport, error) {
	cfg, err := newConfig(modeReplay, opts)
	if err != nil {
		return nil, err
	}
	if app == nil {
		return nil, errors.New("cdc: Replay needs a non-nil App")
	}
	st, err := cfg.openReplayStore()
	if err != nil {
		return nil, err
	}
	m, err := store.Open(st, cfg.app, world.Size())
	if err != nil {
		return nil, err
	}
	live := m.Salvaged || cfg.live
	report := &ReplayReport{
		Dir:      storeDir(st),
		Manifest: m,
		Salvaged: m.Salvaged,
		Ranks:    make([]RankReplay, world.Size()),
	}
	err = world.RunRanked(func(rank int, mpi simmpi.MPI) error {
		// Two streaming passes replace the old eager LoadRank: a prescan
		// summarizes the rank's record (per-callsite event totals and
		// exception pins) in bounded memory, then the replayer pulls chunks
		// from a second pass as replay progresses — with WithDecodeWorkers,
		// both passes run through the parallel decode pipeline and the feed
		// pass stays a prefetch window ahead of the consumption frontier.
		meta, err := scanRankMeta(st, rank, cfg.decoderOptions())
		if err != nil {
			return fmt.Errorf("rank %d: prescan: %w", rank, err)
		}
		it, blob, err := store.OpenRankIter(st, rank, cfg.decoderOptions())
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		ropts := replay.Options{
			Timeout:            cfg.timeout,
			DisableMFID:        cfg.disableMFID,
			LiveAfterExhausted: live,
			Obs:                cfg.obs,
		}
		if cfg.optimisticSet {
			ropts.OptimisticDelay = cfg.optimisticDelay
		}
		if cfg.onRelease != nil {
			onRelease := cfg.onRelease
			ropts.OnRelease = func(st simmpi.Status) { onRelease(rank, st) }
		}
		src := rankSource{ChunkSource: replay.IterSource(it), blob: blob}
		rp := replay.NewStream(lamport.WrapManual(mpi), meta, src, ropts)
		appErr := app(rank, rp)
		var verifyErr error
		if appErr == nil {
			verifyErr = rp.Verify()
		}
		closeErr := rp.Close()
		isLive, note := rp.Live()
		report.Ranks[rank] = RankReplay{Rank: rank, Stats: rp.Stats(), Live: isLive, Note: note}
		if err := errors.Join(appErr, verifyErr, closeErr); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		return nil
	})
	if err != nil {
		return report, err
	}
	return report, nil
}
