// Package core implements the complete Clock Delta Compression pipeline —
// the paper's primary contribution (§3): redundancy elimination,
// permutation encoding against the Lamport-clock reference order, linear
// predictive encoding of index columns, epoch enforcement for chunked
// flushing, and a final gzip pass over the serialized stream.
//
// The Encoder consumes the per-callsite event stream a recorder produces
// and writes a compact record file; the Decoder reads it back into chunks
// for the replay engine. Between them they realize Fig. 2's "CDC encoding"
// and "CDC decoding" boxes.
//
// # Record file layout
//
//	magic "CDCRECv2"
//	gzip stream of frames:
//	  frame := kind byte, varint payload length, payload, CRC32 trailer
//	  kind 1: chunk           (cdcformat.Chunk)
//	  kind 2: callsite name   (varint id, UTF-8 name)
//	  kind 3: flush point     (varint writer clock)
//
// The trailer is the IEEE CRC32 of kind+length+payload, little-endian, so a
// reader can stop cleanly at the last intact frame of a crashed run's
// record. A flush-point frame marks a consistent cut: the encoder writes one
// only when every callsite stream was flushed through it, which is what
// makes a salvaged prefix replayable (see store.PlanSalvage). The frame
// carries the rank's own Lamport clock at the cut (a lower bound sampled on
// the application thread): every send the rank made with a smaller or equal
// clock provably precedes the cut, which is what lets salvage compute a
// tight cross-rank consistency frontier instead of cascading to nothing.
//
// Chunks for one callsite appear in record order; chunks of different
// callsites interleave in flush order.
package core

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/varint"
)

// Magic is the record file signature. v2 added per-frame CRC32 trailers and
// flush-point frames; v1 files are not readable (the reproduction has no
// compatibility window to honour).
const Magic = "CDCRECv2"

// Frame kinds.
const (
	frameChunk    = 1
	frameCallsite = 2
	frameFlush    = 3
)

// maxFrameLen bounds a frame payload during decode (corruption guard).
const maxFrameLen = 1 << 30

// EncoderOptions tune the Encoder.
type EncoderOptions struct {
	// ChunkEvents is the number of matched events per chunk before a
	// flush (§3.5 epoch enforcement). Default 4096.
	ChunkEvents int
	// GzipLevel is the compression level for the final gzip pass.
	// Default gzip.DefaultCompression.
	GzipLevel int
	// OmitSenderColumn drops the reference-order sender column robustness
	// extension, producing the paper's exact format. Records without the
	// column replay correctly for polling-style applications (the
	// patterns the paper evaluates) but can stall or abort on
	// tightly-coupled blocking exchanges; see cdcformat.Chunk.Senders.
	OmitSenderColumn bool
	// Durable fsyncs the underlying writer (when it implements Syncer) at
	// every flush point and on close, so a machine crash loses at most the
	// events since the last FlushAll.
	Durable bool
	// EncodeWorkers > 1 fans chunk building and serialization across that
	// many workers, with an ordered-commit stage keeping the record file
	// byte-identical to single-threaded output (DESIGN.md §9). 0 or 1 keeps
	// everything on the calling goroutine. With workers, Stats and
	// BytesWritten are exact only after Close.
	EncodeWorkers int
	// Obs, when non-nil, receives per-stage pipeline metrics (encode.*
	// names, DESIGN.md §8): byte counts after redundancy elimination,
	// permutation encoding, LP encoding, and gzip. Stage sizing does a
	// little extra work per chunk flush; a nil registry skips it entirely.
	Obs *obs.Registry
	// Resume appends to an existing record file instead of starting one:
	// the magic header is assumed present and a fresh gzip member is
	// opened after the cleanly closed previous stream (see
	// NewFrameWriterResume). The writer must be positioned at the end of
	// the file (O_APPEND). ResumeClock seeds the encoder's clock bound so
	// flush-point marks stay monotone across the resume boundary.
	Resume      bool
	ResumeClock uint64
	// SeekableCuts closes the gzip member at every flush-point mark and
	// opens a fresh one, so the byte offset after each mark is a gzip
	// member boundary — a random-access decode point (gzip readers
	// concatenate members transparently, so sequential decode is
	// unchanged). Costs a member trailer+header (~30 bytes) and a
	// compression-dictionary reset per cut; seekable storage backends
	// turn it on, the byte-compatible dir layout leaves it off.
	SeekableCuts bool
	// OnFlushPoint, when non-nil, is invoked after each flush-point mark
	// reaches the underlying writer (FlushAll rounds that wrote a mark,
	// and Close's final mark) with the writer-relative cut: the mark's
	// clock, cumulative matched events, and compressed bytes emitted.
	// Storage backends hang their epoch-index commit on it. It runs on
	// the encoder's goroutine; an error fails the flush.
	OnFlushPoint func(clock, events uint64, offset int64) error
}

func (o *EncoderOptions) fill() {
	if o.ChunkEvents == 0 {
		o.ChunkEvents = 4096
	}
	if o.GzipLevel == 0 {
		o.GzipLevel = gzip.DefaultCompression
	}
}

// Stats aggregates what the encoder has seen, for the paper's evaluation
// metrics.
type Stats struct {
	// Rows is the number of record-table rows observed (Fig. 4 rows).
	Rows uint64
	// MatchedEvents is the number of matched receive events.
	MatchedEvents uint64
	// UnmatchedTests is the total count of failed test calls.
	UnmatchedTests uint64
	// PermutedMessages is the number of permutation-difference rows
	// (paper's Np for the Fig. 14 percentage).
	PermutedMessages uint64
	// ValuesOriginal is the stored-value count of the uncompressed format
	// (five per row).
	ValuesOriginal uint64
	// ValuesCDC is the stored-value count after full CDC encoding.
	ValuesCDC uint64
	// Chunks is the number of chunks flushed.
	Chunks uint64
	// FlushPoints is the number of consistent-cut marks written (FlushAll
	// rounds that flushed every stream, plus the final one at Close).
	FlushPoints uint64
}

// PermutationPercent returns 100·Np/N, the Fig. 14 metric.
func (s Stats) PermutationPercent() float64 {
	if s.MatchedEvents == 0 {
		return 0
	}
	return 100 * float64(s.PermutedMessages) / float64(s.MatchedEvents)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// Syncer is the subset of *os.File a durable writer needs: forcing buffered
// bytes to stable storage.
type Syncer interface{ Sync() error }

// FrameWriter emits the physical record-file layer: magic, gzip stream, and
// CRC32-trailed frames. The Encoder drives it for CDC records; salvage
// tooling drives it directly to rewrite verified frames.
type FrameWriter struct {
	cw      *countingWriter
	zw      *gzip.Writer
	level   int    // gzip level, for returning zw to its pool
	sync    Syncer // non-nil when durable and the writer can fsync
	scratch []byte
	closed  bool
	// seekable ends the gzip member at every FlushPoint (see
	// EncoderOptions.SeekableCuts).
	seekable bool
}

// NewFrameWriter writes the magic and opens the gzip stream. With durable
// set, every FlushPoint and the final Close fsync the underlying writer if
// it implements Syncer.
func NewFrameWriter(w io.Writer, gzipLevel int, durable bool) (*FrameWriter, error) {
	return newFrameWriter(w, gzipLevel, durable, true)
}

// NewFrameWriterResume continues an existing record file: the magic header
// is already on disk, so only a fresh gzip member is opened, appended after
// the cleanly closed previous one. Decoders need no resume awareness —
// gzip readers concatenate members transparently, so the appended frames
// read as a straight continuation of the original stream. The ingest
// daemon uses this to extend a salvaged (or gracefully finalized) rank
// record across a daemon restart.
func NewFrameWriterResume(w io.Writer, gzipLevel int, durable bool) (*FrameWriter, error) {
	return newFrameWriter(w, gzipLevel, durable, false)
}

func newFrameWriter(w io.Writer, gzipLevel int, durable bool, writeMagic bool) (*FrameWriter, error) {
	if gzipLevel == 0 {
		gzipLevel = gzip.DefaultCompression
	}
	cw := &countingWriter{w: w}
	if writeMagic {
		if _, err := io.WriteString(cw, Magic); err != nil {
			return nil, err
		}
	}
	zw, err := getGzipWriter(cw, gzipLevel)
	if err != nil {
		return nil, err
	}
	fw := &FrameWriter{cw: cw, zw: zw, level: gzipLevel}
	if durable {
		fw.sync, _ = w.(Syncer)
	}
	return fw, nil
}

// WriteFrame emits one frame: kind, varint length, payload, and the CRC32
// trailer over the three.
func (fw *FrameWriter) WriteFrame(kind byte, payload []byte) error {
	if fw.closed {
		return errors.New("core: WriteFrame after Close")
	}
	buf := append(fw.scratch[:0], kind)
	buf = varint.AppendUint(buf, uint64(len(payload)))
	crc := crc32.ChecksumIEEE(buf)
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if _, err := fw.zw.Write(buf); err != nil {
		return err
	}
	if _, err := fw.zw.Write(payload); err != nil {
		return err
	}
	buf = binary.LittleEndian.AppendUint32(buf[:0], crc)
	_, err := fw.zw.Write(buf)
	fw.scratch = buf
	return err
}

// Flush pushes buffered frames through the compressor to the underlying
// writer (gzip sync flush) and fsyncs when durable. It does not write a
// flush-point frame; callers that have reached a consistent cut use
// FlushPoint.
func (fw *FrameWriter) Flush() error {
	if err := fw.zw.Flush(); err != nil {
		return err
	}
	if fw.sync != nil {
		return fw.sync.Sync()
	}
	return nil
}

// FlushPoint marks a consistent cut — a flush-point frame carrying the
// writer's clock, followed by a Flush — after which everything written so
// far is salvageable as a unit. With SetSeekableCuts the member is closed
// instead of sync-flushed, leaving BytesWritten on a member boundary.
func (fw *FrameWriter) FlushPoint(clock uint64) error {
	if err := fw.WriteFrame(frameFlush, varint.AppendUint(nil, clock)); err != nil {
		return err
	}
	if fw.seekable {
		return fw.endMember()
	}
	return fw.Flush()
}

// SetSeekableCuts makes every subsequent FlushPoint end the gzip member
// (see EncoderOptions.SeekableCuts). Call before the first FlushPoint.
func (fw *FrameWriter) SetSeekableCuts(on bool) { fw.seekable = on }

// endMember finalizes the current gzip member and opens a fresh one, so
// the bytes emitted so far end on a member boundary — a decode point a
// reader can seek straight to. The fsync (when durable) happens after the
// member trailer is out, like Flush's.
func (fw *FrameWriter) endMember() error {
	if err := fw.zw.Close(); err != nil {
		return err
	}
	putGzipWriter(fw.level, fw.zw)
	zw, err := getGzipWriter(fw.cw, fw.level)
	if err != nil {
		// No writer to continue on; latch closed so a later WriteFrame
		// fails loudly instead of dereferencing nil.
		fw.zw = nil
		fw.closed = true
		return err
	}
	fw.zw = zw
	if fw.sync != nil {
		return fw.sync.Sync()
	}
	return nil
}

// Close writes a final flush-point frame carrying clock, finalizes the gzip
// stream, and fsyncs when durable. The FrameWriter cannot be used afterwards.
func (fw *FrameWriter) Close(clock uint64) error {
	if fw.closed {
		return nil
	}
	if err := fw.WriteFrame(frameFlush, varint.AppendUint(nil, clock)); err != nil {
		return err
	}
	fw.closed = true
	if err := fw.zw.Close(); err != nil {
		return err
	}
	// A cleanly closed gzip writer is safe to reuse via Reset; error paths
	// above abandon it to the GC instead.
	putGzipWriter(fw.level, fw.zw)
	fw.zw = nil
	if fw.sync != nil {
		return fw.sync.Sync()
	}
	return nil
}

// BytesWritten reports the compressed bytes emitted so far (exact after
// Close).
func (fw *FrameWriter) BytesWritten() int64 { return fw.cw.n }

// Encoder applies CDC to an event stream and writes the record file.
// It is not safe for concurrent use; the recorder drives it from its
// dedicated CDC goroutine.
type Encoder struct {
	opts    EncoderOptions
	fw      *FrameWriter
	pending map[uint64]*pendingStream
	order   []uint64 // callsites in first-seen order, for deterministic flush
	named   map[uint64]bool
	// clock is the best lower bound on the writing rank's Lamport clock:
	// the max of FlushAll-supplied samples and observed receive clocks. It
	// stamps flush-point frames.
	clock   uint64
	stats   Stats
	scratch []byte
	closed  bool
	// pipe is the parallel encode pipeline, non-nil when
	// EncoderOptions.EncodeWorkers > 1 (pipeline.go).
	pipe *encodePipeline

	// obs instruments, nil when Options.Obs is nil. mLPE doubles as the
	// "stage sizing enabled" flag: computing RE/PE sizes costs a pass over
	// the chunk, which a disabled registry must not pay.
	mChunks *obs.Counter
	mRaw    *obs.Counter
	mRE     *obs.Counter
	mPE     *obs.Counter
	mLPE    *obs.Counter
	mGzip   *obs.Counter
	obsReg  *obs.Registry
	// gzipReported is how much of fw.BytesWritten() has been added to
	// mGzip, so the shared-registry counter sums correctly across the
	// world's per-rank encoders.
	gzipReported int64
}

// rawBitsPerRow is the paper's uncompressed record-row accounting
// (baseline.BitsPerEvent; duplicated here because baseline imports core).
const rawBitsPerRow = 162

type pendingStream struct {
	events  []tables.Event
	matched int
	// frontier is the cumulative per-sender epoch frontier across all
	// flushed chunks, used to pin boundary-inversion exceptions.
	frontier map[int32]uint64
}

// NewEncoder creates an Encoder writing to w.
func NewEncoder(w io.Writer, opts EncoderOptions) (*Encoder, error) {
	opts.fill()
	var fw *FrameWriter
	var err error
	if opts.Resume {
		fw, err = NewFrameWriterResume(w, opts.GzipLevel, opts.Durable)
	} else {
		fw, err = NewFrameWriter(w, opts.GzipLevel, opts.Durable)
	}
	if err != nil {
		return nil, err
	}
	fw.SetSeekableCuts(opts.SeekableCuts)
	e := &Encoder{
		opts:    opts,
		fw:      fw,
		pending: make(map[uint64]*pendingStream),
		named:   make(map[uint64]bool),
		clock:   opts.ResumeClock,
	}
	if reg := opts.Obs; reg != nil {
		e.obsReg = reg
		e.mChunks = reg.Counter("encode.chunks")
		e.mRaw = reg.Counter("encode.bytes.raw")
		e.mRE = reg.Counter("encode.bytes.re")
		e.mPE = reg.Counter("encode.bytes.pe")
		e.mLPE = reg.Counter("encode.bytes.lpe")
		e.mGzip = reg.Counter("encode.bytes.gzip")
	}
	if opts.EncodeWorkers > 1 {
		e.pipe = newEncodePipeline(e, opts.EncodeWorkers)
	}
	return e, nil
}

// RegisterCallsite records a human-readable name for a callsite ID
// (file:line of the MF call), written once into the stream.
func (e *Encoder) RegisterCallsite(id uint64, name string) error {
	if e.named[id] {
		return nil
	}
	e.named[id] = true
	var w varint.Writer
	w.Uint(id)
	w.Bytes([]byte(name))
	if e.pipe != nil {
		j := e.pipe.getJob()
		j.kind = jobFrame
		j.frameKind = frameCallsite
		j.payload = append(j.payload[:0], w.Result()...)
		e.pipe.submit(j)
		return e.pipe.firstErr()
	}
	return e.fw.WriteFrame(frameCallsite, w.Result())
}

// Observe feeds one event row for a callsite. Matched rows are flushed in
// chunks of ChunkEvents.
func (e *Encoder) Observe(callsite uint64, ev tables.Event) error {
	if e.closed {
		return errors.New("core: Observe after Close")
	}
	ps := e.pending[callsite]
	if ps == nil {
		ps = &pendingStream{}
		e.pending[callsite] = ps
		e.order = append(e.order, callsite)
	}
	e.stats.Rows++
	if ev.Flag {
		e.stats.MatchedEvents++
		ps.matched++
		if ev.Clock > e.clock {
			e.clock = ev.Clock
		}
	} else {
		e.stats.UnmatchedTests += ev.Count
	}
	e.stats.ValuesOriginal += 5
	ps.events = append(ps.events, ev)
	// Flush only at a group boundary: a with_next event is received
	// together with its successor, and the replay engine releases such
	// groups in a single MF call, so a group must never straddle chunks.
	if ps.matched >= e.opts.ChunkEvents && ev.Flag && !ev.WithNext {
		return e.flush(callsite, ps)
	}
	return nil
}

func (e *Encoder) flush(callsite uint64, ps *pendingStream) error {
	if e.pipe != nil {
		return e.flushAsync(callsite, ps)
	}
	if len(ps.events) == 0 {
		return nil
	}
	var chunk *cdcformat.Chunk
	if e.opts.OmitSenderColumn {
		chunk = cdcformat.BuildChunk(callsite, ps.events)
	} else {
		chunk = cdcformat.BuildChunkWithSenders(callsite, ps.events)
	}
	// Pin messages that an application-level same-sender inversion pushed
	// past a flush boundary: their clocks do not exceed a previously
	// flushed frontier, so window-based membership needs the explicit
	// exception entry.
	if ps.frontier == nil {
		ps.frontier = make(map[int32]uint64)
	}
	for _, ev := range ps.events {
		if ev.Flag && ev.Clock <= ps.frontier[ev.Rank] {
			chunk.Exceptions = append(chunk.Exceptions,
				tables.MatchedEntry{Rank: ev.Rank, Clock: ev.Clock})
		}
	}
	for _, ep := range chunk.EpochLine {
		if ep.Clock > ps.frontier[ep.Rank] {
			ps.frontier[ep.Rank] = ep.Clock
		}
	}
	if e.mLPE != nil {
		span := e.obsReg.StartSpan("encode.chunk")
		re, pe, lp := cdcformat.StageSizes(ps.events, chunk)
		e.mChunks.Inc()
		e.mRaw.Add(uint64(len(ps.events)) * rawBitsPerRow / 8)
		e.mRE.Add(uint64(re))
		e.mPE.Add(uint64(pe))
		e.mLPE.Add(uint64(lp))
		span.End()
	}
	ps.events = ps.events[:0]
	ps.matched = 0
	e.stats.Chunks++
	e.stats.PermutedMessages += uint64(len(chunk.Moves))
	e.stats.ValuesCDC += uint64(chunk.ValueCount())
	e.scratch = chunk.Marshal(e.scratch[:0])
	return e.fw.WriteFrame(frameChunk, e.scratch)
}

// FlushAll flushes every pending stream to storage as chunks, regardless
// of how full they are — the periodic memory-bound flush §3.5 motivates
// ("debugging tools need to minimize memory usage"). A stream whose
// buffered events end inside a with_next group is skipped this round:
// groups must never straddle chunks.
//
// When no stream was skipped, the flushed frames form a consistent cut of
// the rank's event history and a flush-point frame marks it; a crashed
// record is salvageable back to its last such mark. A round that had to
// skip a stream still pushes bytes to storage but writes no mark.
//
// clock is the writing rank's Lamport clock sampled when the newest flushed
// row's MF call returned (zero if the caller has no clock source); it — or
// any larger bound already observed — is stamped into the flush-point frame.
func (e *Encoder) FlushAll(clock uint64) error {
	if e.closed {
		return errors.New("core: FlushAll after Close")
	}
	if clock > e.clock {
		e.clock = clock
	}
	skipped := false
	for _, cs := range e.order {
		ps := e.pending[cs]
		if n := len(ps.events); n > 0 {
			if last := ps.events[n-1]; last.Flag && last.WithNext {
				skipped = true
				continue
			}
		}
		if err := e.flush(cs, ps); err != nil {
			return err
		}
	}
	if e.pipe != nil {
		j := e.pipe.getJob()
		if skipped {
			j.kind = jobFlushOnly
		} else {
			e.stats.FlushPoints++
			j.kind = jobFlushPoint
			j.clock = e.clock
		}
		if err := e.pipe.run(j); err != nil || skipped {
			return err
		}
		return e.notifyFlushPoint()
	}
	if skipped {
		err := e.fw.Flush()
		e.reportGzipBytes()
		return err
	}
	e.stats.FlushPoints++
	err := e.fw.FlushPoint(e.clock)
	e.reportGzipBytes()
	if err != nil {
		return err
	}
	return e.notifyFlushPoint()
}

// notifyFlushPoint invokes the OnFlushPoint commit hook after a mark
// reached the underlying writer. Safe in parallel mode too: run(j) only
// returns after the committer executed the mark, so the FrameWriter is
// quiescent and BytesWritten is exact.
func (e *Encoder) notifyFlushPoint() error {
	if e.opts.OnFlushPoint == nil {
		return nil
	}
	return e.opts.OnFlushPoint(e.clock, e.stats.MatchedEvents, e.fw.BytesWritten())
}

// Close flushes every pending stream and finalizes the gzip stream (whose
// final frame is a flush-point mark). The Encoder cannot be used afterwards.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.pipe != nil {
		return e.closeParallel()
	}
	for _, cs := range e.order {
		if err := e.flush(cs, e.pending[cs]); err != nil {
			return err
		}
	}
	e.stats.FlushPoints++
	err := e.fw.Close(e.clock)
	e.reportGzipBytes()
	if err != nil {
		return err
	}
	return e.notifyFlushPoint()
}

// reportGzipBytes adds the not-yet-reported compressed output to the
// encode.bytes.gzip counter. Deltas (rather than a gauge of the total) let
// every rank's encoder share one registry and still sum to the world's
// total record size.
func (e *Encoder) reportGzipBytes() {
	if e.mGzip == nil {
		return
	}
	if n := e.fw.BytesWritten(); n > e.gzipReported {
		e.mGzip.Add(uint64(n - e.gzipReported))
		e.gzipReported = n
	}
}

// BytesWritten reports the compressed bytes emitted so far (exact after
// Close).
func (e *Encoder) BytesWritten() int64 { return e.fw.BytesWritten() }

// Stats returns the accumulated statistics. With EncodeWorkers > 1,
// PermutedMessages and ValuesCDC are computed by the workers and folded in
// at Close; the remaining fields are always current.
func (e *Encoder) Stats() Stats { return e.stats }

// Record is a fully decoded record file.
type Record struct {
	// Chunks holds each callsite's chunks in record order.
	Chunks map[uint64][]*cdcformat.Chunk
	// Names maps callsite IDs to their registered names.
	Names map[uint64]string
	// order lists chunk callsites in stream order (with repeats).
	order []uint64
}

// Callsites returns the callsite IDs present, in first-chunk order.
func (r *Record) Callsites() []uint64 {
	seen := make(map[uint64]bool, len(r.Chunks))
	var out []uint64
	for _, cs := range r.order {
		if !seen[cs] {
			seen[cs] = true
			out = append(out, cs)
		}
	}
	return out
}

// DrainRecord consumes the iterator's remaining frames into a materialized
// *Record, closing the iterator. On a damaged or truncated stream the
// CRC-valid prefix record is returned alongside the error (a
// *TruncatedRecordError for truncation), however the iterator's frames
// are decoded (serial, pooled, or segment-parallel). Storage backends lean
// on this to read a live run's blob pinned at a committed cut, where
// running out of bytes mid-frame is the pin boundary, not damage.
func DrainRecord(it *RecordIter) (*Record, error) {
	rec := &Record{
		Chunks: make(map[uint64][]*cdcformat.Chunk),
	}
	defer it.Close() //cdc:allow(errsink) read-side close; decode and checksum errors surface from Next
	for {
		f, err := it.Next()
		rec.Names = it.Names()
		if err == io.EOF {
			return rec, nil
		}
		if err != nil {
			return rec, err
		}
		if f.Chunk != nil {
			rec.Chunks[f.Chunk.Callsite] = append(rec.Chunks[f.Chunk.Callsite], f.Chunk)
			rec.order = append(rec.order, f.Chunk.Callsite)
		}
	}
}
