// Package replay implements the replay-mode tool layer (paper §3.6, §4.2
// and the Axiom 1 release rule proved correct in §5).
//
// The Replayer stacks above a manual-mode lamport layer:
//
//	app → replay.Replayer → lamport.Layer (manual) → simmpi.Comm
//
// At every MF call it polls the layer below for completions (which arrive
// in this run's non-deterministic order), holds them in a pool, and
// releases them to the application strictly in the recorded observed order.
// Because message identifiers (rank, clock) are not stored in the record,
// the observed order is reconstructed per Fig. 2's decode box: the chunk's
// live messages are ranked by the Definition 6 reference order and the
// recorded permutation difference is applied.
//
// A receive event e at observed position t (reference rank r) is released
// only when the Axiom 1 conditions hold:
//
//	(i)   clocks of earlier events are already replayed — guaranteed
//	      because releases happen in observed order and each release ticks
//	      the lamport clock via TickReceive;
//	(ii)  enough chunk messages have been received to identify the rank-r
//	      message, and
//	(iii) the candidate's clock is strictly below the local minimum clock
//	      (LMC): the smallest clock any still-missing chunk message could
//	      carry, derived from per-sender FIFO clock monotonicity. (When
//	      every chunk message has arrived the ranks are exact and the LMC
//	      test is unnecessary.)
//
// Epoch enforcement (§3.5): a live message (s, c) belongs to the current
// chunk iff prevFrontier(s) < c ≤ frontier(s), where frontier is the
// chunk's epoch line; messages beyond it wait for a later chunk.
//
// Replay assumes what the record assumed (see DESIGN.md): distinct MF
// callsites must not compete for the same messages (disjoint tags or
// sources), which the paper's workloads satisfy by construction. Within a
// callsite, requests with equal specs are interchangeable: MPI binds
// arriving messages to posted receives in arrival order, so the binding may
// differ between record and replay. The Replayer therefore releases the
// *recorded message* through whichever compatible request slot the
// application is presenting, and keeps polling a slot whose own binding is
// still outstanding (a "zombie") so that its message is harvested later.
package replay

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"cdcreplay/internal/callsite"
	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/permdiff"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
)

// ErrDiverged reports that the replayed application issued MF calls that
// are inconsistent with the record — almost always a non-deterministic
// application input rather than a tool bug.
var ErrDiverged = errors.New("replay: application diverged from record")

// ErrExhausted reports an MF call at a callsite whose recorded stream has
// no more events.
var ErrExhausted = errors.New("replay: record exhausted")

// ErrStalled reports that the replay waited longer than the timeout for a
// message the record promises; it carries diagnostic state.
var ErrStalled = errors.New("replay: stalled waiting for recorded message")

// Options configure a Replayer.
type Options struct {
	// Timeout bounds how long a release may wait for its message.
	// Default 30s.
	Timeout time.Duration
	// DisableMFID must match the recorder's setting: all events live in
	// the callsite-0 stream.
	DisableMFID bool
	// OptimisticDelay is how long a release may stall on the strict
	// Axiom 1 safety rule before the best available candidate is released
	// optimistically. Optimism is *verified*: every release consumes a
	// collected message, so when a chunk's releases finish, all of its
	// message keys are known and the rank→key assignment is checked to be
	// monotone; a wrong guess fails the replay with ErrDiverged instead
	// of silently producing a different execution. Optimism is needed for
	// tightly-coupled blocking exchanges (halo patterns), where a
	// receiver can never locally bound a drifted-behind sender's next
	// clock (the paper's Axiom 1 assumes that bound exists). The delay is
	// a race guard: a genuinely wedged exchange has nothing in flight, so
	// waiting longer only costs latency, while releasing too early risks
	// guessing while the true message is still in transit. Default 50ms;
	// negative disables optimism.
	OptimisticDelay time.Duration
	// LiveAfterExhausted changes what happens when the record runs out —
	// the normal state of a record salvaged from a crashed run. Instead
	// of failing with ErrExhausted, the replayer hands control back to
	// the live application: MF calls at an exhausted (or never-recorded)
	// callsite match messages in this run's natural arrival order, with
	// the lamport clock still ticking. The run up to the crash frontier
	// is exact replay; past it, execution continues non-deterministically
	// like a plain run. Live reports whether and where the handback
	// happened.
	LiveAfterExhausted bool
	// OnRelease, when set, is called for every receive event handed to the
	// application, in the order the application observes them — replayed
	// releases first, live-phase deliveries after. Tests and tracing tools
	// use it to compare observed orders across runs.
	OnRelease func(st simmpi.Status)
	// Obs, when non-nil, receives the replayer's metrics (replay.* names,
	// DESIGN.md §8): match-loop stalls, group wait latency, clock-wait
	// time, and pool depth.
	Obs *obs.Registry
	// CallsiteSkip is added to the frame skip when resolving MF callsites.
	// It lets a tool layer interposed between the application and the
	// replayer (e.g. a re-recording pass in the DST harness) resolve
	// callsites to the application's program counters rather than its own.
	CallsiteSkip int
}

func (o *Options) fill() {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.OptimisticDelay == 0 {
		o.OptimisticDelay = 50 * time.Millisecond
	}
}

// pooled is a completion harvested below but not yet released to the app.
type pooled struct {
	st  simmpi.Status
	req *simmpi.Request
}

// senderTag keys the robust identification subsequences.
type senderTag struct {
	src int32
	tag int32
}

// Replayer replays one rank's recorded receive order.
type Replayer struct {
	next *lamport.Layer
	opts Options

	streams map[uint64]*stream
	pool    []pooled
	// lastSeen tracks, per sender, the largest piggybacked clock harvested
	// so far; FIFO delivery makes it a strict lower bound on every future
	// message's clock — the basis of the LMC rule.
	lastSeen map[int32]uint64
	// outstanding holds every receive posted below (by the app through
	// Irecv, or internally as a probe) whose completion has not been
	// harvested yet, in posting order. The replayer polls all of them at
	// every MF call: a completion bound to one request may have to be
	// released through a different, spec-equivalent slot.
	outstanding []*simmpi.Request
	// appDone marks requests already virtually completed for the app but
	// still outstanding below (their own binding is yet to arrive).
	appDone map[*simmpi.Request]bool

	// liveNotes records why and where each callsite went live
	// (LiveAfterExhausted mode); non-empty means the crash frontier was
	// crossed.
	liveNotes []string

	// Streaming-replay state: the shared chunk source, chunks pulled ahead
	// for callsites not yet asking, and the latched terminal source state
	// (ErrExhausted after a clean end).
	src     ChunkSource
	pending map[uint64][]*cdcformat.Chunk
	srcErr  error

	stats Stats

	// obs instruments, nil when Options.Obs is nil (no-op calls).
	mReleases    *obs.Counter
	mOptimistic  *obs.Counter
	mLive        *obs.Counter
	mStallPolls  *obs.Counter
	mClockWaitNs *obs.Counter
	mWaitNs      *obs.Histogram
	mPool        *obs.Gauge
	obsReg       *obs.Registry
}

// Stats counts what the replayer did, for observability and tests.
type Stats struct {
	// Released is the number of receive events handed to the application.
	Released uint64
	// UnmatchedConsumed is the number of forced failed-test results.
	UnmatchedConsumed uint64
	// OptimisticReleases counts releases that bypassed the strict Axiom 1
	// rule (paper-faithful format only; always verified at chunk end).
	OptimisticReleases uint64
	// ProbesPosted counts internal re-posted receives used to fetch
	// recorded messages whose natural slot was consumed out of order.
	ProbesPosted uint64
	// ChunksVerified counts completed chunks that passed the monotone
	// rank→key check.
	ChunksVerified uint64
	// LiveReleases counts receive events delivered after the record was
	// exhausted (LiveAfterExhausted mode), in natural arrival order.
	LiveReleases uint64
}

var _ simmpi.MPI = (*Replayer)(nil)

// CallsiteMeta is the per-callsite summary a streaming replay needs up
// front: how many matched events the record holds (for Verify) and which
// chunk ordinal each boundary-inversion exception message is pinned to
// (collect cannot judge exception membership by epoch window alone, and the
// pinning chunk may stream in long after the message arrives).
type CallsiteMeta struct {
	Chunks   int
	Events   uint64
	ExcChunk map[tables.MatchedEntry]int
}

// RecordMeta is the prescan summary of one rank's record: everything the
// replayer must know about chunks it has not streamed yet. ScanRecord
// builds it in one bounded-memory pass.
type RecordMeta struct {
	Names     map[uint64]string
	Callsites map[uint64]*CallsiteMeta
}

// ScanRecord streams a record once and summarizes it into a RecordMeta.
// The pass keeps only counters and the (rare) exception keys — not the
// chunk tables — so a record of any size prescans in bounded memory. The
// iterator is closed when the scan returns. On a decode failure the meta
// summarizing the intact prefix is returned alongside the error, so a
// caller that can forgive the damage (a store's epoch pin) keeps the
// prefix — mirroring core.DrainRecord.
func ScanRecord(it *core.RecordIter) (*RecordMeta, error) {
	defer it.Close() //cdc:allow(errsink) read-side close; decode errors surface from Next
	m := &RecordMeta{Callsites: make(map[uint64]*CallsiteMeta)}
	for {
		f, err := it.Next()
		m.Names = it.Names()
		if err == io.EOF {
			return m, nil
		}
		if err != nil {
			return m, err
		}
		if f.Chunk == nil {
			continue
		}
		cm := m.Callsites[f.Chunk.Callsite]
		if cm == nil {
			cm = &CallsiteMeta{}
			m.Callsites[f.Chunk.Callsite] = cm
		}
		cm.Events += f.Chunk.NumMatched
		for _, e := range f.Chunk.Exceptions {
			if cm.ExcChunk == nil {
				cm.ExcChunk = make(map[tables.MatchedEntry]int)
			}
			e.Tag = 0 // keyed by (rank, clock) only
			cm.ExcChunk[e] = cm.Chunks
		}
		cm.Chunks++
	}
}

// ChunkSource feeds a streaming replay chunks in record order. Next returns
// io.EOF after the last chunk; Chunk.Callsite routes each one to its
// stream. Sources need not be safe for concurrent use — the replayer pulls
// from application goroutine context, one chunk at a time.
type ChunkSource interface {
	Next() (*cdcformat.Chunk, error)
	Close() error
}

// iterSource adapts a RecordIter into a ChunkSource by skipping the
// non-chunk frames.
type iterSource struct{ it *core.RecordIter }

func (s iterSource) Next() (*cdcformat.Chunk, error) {
	for {
		f, err := s.it.Next()
		if err != nil {
			return nil, err
		}
		if f.Chunk != nil {
			return f.Chunk, nil
		}
	}
}

func (s iterSource) Close() error { return s.it.Close() }

// IterSource exposes a RecordIter's chunk frames as a ChunkSource — the
// glue between the core decode pipeline (serial or pooled) and NewStream.
func IterSource(it *core.RecordIter) ChunkSource { return iterSource{it} }

// NewStream creates the Replayer for one rank; it is the one replay entry
// point. next must be a manual-mode lamport layer (lamport.WrapManual).
// The replayer pulls chunks from src as replay progresses instead of
// materializing the record: with a pooled decode behind src
// (core.OpenRecordOptions / OpenRecordSegments), decoded chunks arrive a
// bounded prefetch window ahead of the consumption frontier and the whole
// record is never resident at once. meta comes from a ScanRecord prescan
// of the same record (the prescan pass may — and with a store, should —
// run through the parallel decoder too).
//
// The replayer owns src and closes it in Close. Chunks for a callsite that
// outpace that callsite's consumption are buffered pending; lockstep
// callsites keep that buffer near the prefetch depth.
func NewStream(next *lamport.Layer, meta *RecordMeta, src ChunkSource, opts Options) *Replayer {
	opts.fill()
	reg := opts.Obs
	rp := &Replayer{
		next:     next,
		opts:     opts,
		streams:  make(map[uint64]*stream, len(meta.Callsites)),
		lastSeen: make(map[int32]uint64),
		appDone:  make(map[*simmpi.Request]bool),
		src:      src,
		pending:  make(map[uint64][]*cdcformat.Chunk),

		obsReg:       reg,
		mReleases:    reg.Counter("replay.releases"),
		mOptimistic:  reg.Counter("replay.optimistic"),
		mLive:        reg.Counter("replay.live.releases"),
		mStallPolls:  reg.Counter("replay.stall.polls"),
		mClockWaitNs: reg.Counter("replay.clockwait.ns"),
		mWaitNs:      reg.Histogram("replay.wait.ns", obs.LatencyBounds()),
		mPool:        reg.Gauge("replay.pool.depth"),
	}
	for cs, cm := range meta.Callsites {
		name := meta.Names[cs]
		if name == "" {
			name = fmt.Sprintf("callsite %#x", cs)
		}
		cs := cs
		st := &stream{name: name, total: cm.Events, excChunk: cm.ExcChunk}
		st.fetch = func() (*cdcformat.Chunk, error) { return rp.pullChunk(cs) }
		rp.streams[cs] = st
	}
	return rp
}

// pullChunk returns callsite cs's next chunk, demultiplexing the shared
// source: chunks for other callsites pulled along the way wait in pending.
func (rp *Replayer) pullChunk(cs uint64) (*cdcformat.Chunk, error) {
	for {
		if q := rp.pending[cs]; len(q) > 0 {
			c := q[0]
			rp.pending[cs] = q[1:]
			return c, nil
		}
		if rp.srcErr != nil {
			return nil, rp.srcErr
		}
		c, err := rp.src.Next()
		if err != nil {
			if err == io.EOF {
				err = ErrExhausted
			}
			rp.srcErr = err
			continue
		}
		if c.Callsite == cs {
			return c, nil
		}
		rp.pending[c.Callsite] = append(rp.pending[c.Callsite], c)
	}
}

// Close releases the chunk source of a streaming replay (and with it the
// decode pipeline's workers). Eager replayers have nothing to release.
func (rp *Replayer) Close() error {
	if rp.src == nil {
		return nil
	}
	return rp.src.Close()
}

// specPair is a receive spec observed at a callsite.
type specPair struct{ src, tag int }

func (sp specPair) accepts(source, tag int) bool {
	return (sp.src == simmpi.AnySource || sp.src == source) &&
		(sp.tag == simmpi.AnyTag || sp.tag == tag)
}

// stream is the replay cursor over one callsite's chunks.
type stream struct {
	name string
	// fetch returns the callsite's next chunk in record order, ErrExhausted
	// past the last one, or the decode failure. NewStream pulls it from the
	// shared ChunkSource, so a chunk's tables are decoded no earlier than
	// the prefetch window ahead of the consumption frontier.
	fetch func() (*cdcformat.Chunk, error)
	ci    int // chunks fetched so far; the loaded chunk's ordinal is ci-1
	// total and seen count matched events: total across the whole recorded
	// stream (from the record or the prescan), seen in fetched chunks.
	// Verify reports total-seen plus the loaded chunk's unreplayed tail
	// without needing the unfetched chunks in memory.
	total  uint64
	seen   uint64
	loaded bool
	err    error
	// live marks the callsite as past its recorded events: MF calls pass
	// messages through in natural arrival order (LiveAfterExhausted).
	live bool

	// specs are the receive specs seen in MF calls at this callsite; a
	// pooled message may only be collected here if some spec accepts it.
	// This keeps callsites with disjoint traffic (different tags or
	// sources) from stealing each other's messages even when their epoch
	// windows overlap numerically.
	specs []specPair

	// Current-chunk state.
	n            int
	refAtObs     []int
	withNext     map[int64]bool
	unmatched    map[int64]uint64
	prevFrontier map[int32]uint64
	frontier     map[int32]uint64
	// tied maps a colliding clock to its recorded multiplicity; seenTied
	// counts how many messages with that clock have arrived so far.
	tied     map[uint64]uint64
	seenTied map[uint64]uint64
	// senders/tags are the chunk's reference-order sender and tag columns,
	// when the record carries the robustness extension. With them, the
	// message for reference rank R is exactly the j-th chunk message to
	// arrive in the (senders[R], tags[R]) subsequence, where j counts
	// ranks below R with the same pair (per-sender arrival order equals
	// per-sender clock order by FIFO, and any subsequence of it is still
	// ordered): identification is immediate and the Axiom 1 machinery
	// (safe, optimism) is bypassed entirely. Identification is per
	// (sender, tag) rather than per sender alone because a stream's
	// spec filter admits or rejects pooled messages whole-tag at a time,
	// so a (sender, tag) subsequence can never have spec-induced gaps.
	// Note the j-th arrival, not the next unreleased one — the
	// application can complete same-sender messages out of order
	// (paper Fig. 3).
	senders []int32
	tags    []int32
	// perKeyIndex[R] is j above; arrivals collects per-(sender, tag)
	// arrival clocks in order.
	perKeyIndex []int
	arrivals    map[senderTag][]uint64
	// excChunk pins boundary-inversion exception messages to their chunk
	// index, overriding window membership (see cdcformat.Chunk.Exceptions).
	excChunk map[tables.MatchedEntry]int
	// collected holds unreleased chunk messages sorted by (clock, rank).
	collected []pooled
	collMax   map[int32]uint64
	released  []bool // by reference rank
	// releasedKey remembers each released rank's message key for the
	// end-of-chunk monotonicity verification of optimistic releases.
	releasedKey []tables.MatchedEntry
	nReleased   int
	t           int // next observed index
}

// load decodes the next chunk's tables.
func (s *stream) load() error {
	if s.prevFrontier == nil {
		s.prevFrontier = make(map[int32]uint64)
	}
	if s.loaded {
		for r, c := range s.frontier {
			if c > s.prevFrontier[r] {
				s.prevFrontier[r] = c
			}
		}
		s.loaded = false
	}
	c, err := s.fetch()
	if err != nil {
		if errors.Is(err, ErrExhausted) {
			return ErrExhausted
		}
		return fmt.Errorf("replay: %s chunk %d: %w", s.name, s.ci, err)
	}
	s.ci++
	s.seen += c.NumMatched
	s.loaded = true
	s.n = int(c.NumMatched)
	obs, err := permdiff.Decode(s.n, c.Moves)
	if err != nil {
		return fmt.Errorf("replay: %s chunk %d: %w", s.name, s.ci-1, err)
	}
	s.refAtObs = obs
	s.withNext = make(map[int64]bool, len(c.WithNext))
	for _, i := range c.WithNext {
		s.withNext[i] = true
	}
	s.unmatched = make(map[int64]uint64, len(c.Unmatched))
	for _, u := range c.Unmatched {
		s.unmatched[u.Index] += u.Count
	}
	s.frontier = make(map[int32]uint64, len(c.EpochLine))
	for _, e := range c.EpochLine {
		s.frontier[e.Rank] = e.Clock
	}
	s.tied = make(map[uint64]uint64, len(c.TiedClocks))
	s.seenTied = make(map[uint64]uint64, len(c.TiedClocks))
	for _, t := range c.TiedClocks {
		s.tied[t.Clock] = t.Count
	}
	s.senders = c.Senders
	s.tags = c.Tags
	s.perKeyIndex = nil
	s.arrivals = nil
	if len(s.senders) > 0 && len(s.tags) == len(s.senders) {
		s.perKeyIndex = make([]int, s.n)
		counts := make(map[senderTag]int)
		for r, src := range s.senders {
			key := senderTag{src, s.tags[r]}
			s.perKeyIndex[r] = counts[key]
			counts[key]++
		}
		s.arrivals = make(map[senderTag][]uint64)
	} else {
		s.senders = nil
		s.tags = nil
	}
	s.collected = s.collected[:0]
	s.collMax = make(map[int32]uint64)
	s.released = make([]bool, s.n)
	s.releasedKey = make([]tables.MatchedEntry, s.n)
	s.nReleased = 0
	s.t = 0
	return nil
}

// verifyChunk checks, once every event of the chunk has been released,
// that the rank→message assignment is a correct sort: keys must ascend
// with rank. A strict (Axiom 1) release can never violate this; an
// optimistic release that guessed wrong is caught here.
func (s *stream) verifyChunk() error {
	if s.nReleased < s.n {
		return nil
	}
	for r := 1; r < s.n; r++ {
		if !tables.Less(s.releasedKey[r-1], s.releasedKey[r]) {
			return fmt.Errorf("%w: callsite %s chunk %d: optimistic release mis-ordered ranks %d (%d,%d) and %d (%d,%d)",
				ErrDiverged, s.name, s.ci-1,
				r-1, s.releasedKey[r-1].Rank, s.releasedKey[r-1].Clock,
				r, s.releasedKey[r].Rank, s.releasedKey[r].Clock)
		}
	}
	return nil
}

// chunkDone reports whether every event and trailing unmatched run of the
// current chunk has been consumed.
func (s *stream) chunkDone() bool {
	return s.loaded && s.t >= s.n && s.unmatched[int64(s.n)] == 0
}

// ensure makes sure a chunk with remaining work is loaded, advancing past
// finished chunks (load merges each finished chunk's frontier).
func (s *stream) ensure() error {
	for {
		if s.loaded && !s.chunkDone() {
			return nil
		}
		if err := s.load(); err != nil {
			return err
		}
	}
}

// inWindow reports whether a live message belongs to the current chunk.
func (s *stream) inWindow(src int32, clock uint64) bool {
	f, ok := s.frontier[src]
	if !ok {
		return false
	}
	return clock > s.prevFrontier[src] && clock <= f
}

// learnSpecs remembers the receive specs presented at this callsite.
func (s *stream) learnSpecs(reqs []*simmpi.Request) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		src, tag := r.Spec()
		sp := specPair{src, tag}
		known := false
		for _, have := range s.specs {
			if have == sp {
				known = true
				break
			}
		}
		if !known {
			s.specs = append(s.specs, sp)
		}
	}
}

func (s *stream) specAccepts(source, tag int) bool {
	for _, sp := range s.specs {
		if sp.accepts(source, tag) {
			return true
		}
	}
	return false
}

// collect moves current-chunk messages from the global pool into the
// stream's sorted collection.
func (s *stream) collect(rp *Replayer) {
	if !s.loaded {
		return
	}
	kept := rp.pool[:0]
	cur := s.ci - 1
	for _, p := range rp.pool {
		key := tables.MatchedEntry{Rank: int32(p.st.Source), Clock: p.st.Clock}
		member := false
		if ci, isExc := s.excChunk[key]; isExc {
			member = ci == cur && s.specAccepts(p.st.Source, p.st.Tag)
		} else {
			member = s.specAccepts(p.st.Source, p.st.Tag) && s.inWindow(int32(p.st.Source), p.st.Clock)
		}
		if member {
			s.insert(p)
		} else {
			kept = append(kept, p)
		}
	}
	rp.pool = kept
	if s.err == nil && len(s.collected)+s.nReleased > s.n {
		s.err = fmt.Errorf("%w: callsite %s chunk %d holds %d messages but records %d — "+
			"same-spec receives are being matched through multiple MF callsites",
			ErrDiverged, s.name, s.ci-1, len(s.collected)+s.nReleased, s.n)
	}
}

func (s *stream) insert(p pooled) {
	key := tables.MatchedEntry{Rank: int32(p.st.Source), Clock: p.st.Clock}
	i := sort.Search(len(s.collected), func(i int) bool {
		e := s.collected[i]
		return !tables.Less(tables.MatchedEntry{Rank: int32(e.st.Source), Clock: e.st.Clock}, key)
	})
	s.collected = append(s.collected, pooled{})
	copy(s.collected[i+1:], s.collected[i:])
	s.collected[i] = p
	if p.st.Clock > s.collMax[int32(p.st.Source)] {
		s.collMax[int32(p.st.Source)] = p.st.Clock
	}
	if _, isTied := s.tied[p.st.Clock]; isTied {
		s.seenTied[p.st.Clock]++
	}
	if s.arrivals != nil {
		key := senderTag{int32(p.st.Source), int32(p.st.Tag)}
		s.arrivals[key] = append(s.arrivals[key], p.st.Clock)
	}
}

// lmc computes the local minimum clock: the smallest clock a still-missing
// message of the current chunk could carry.
func (s *stream) lmc(rp *Replayer) uint64 {
	lmc := uint64(math.MaxUint64)
	for src, f := range s.frontier {
		if s.collMax[src] >= f {
			continue // this sender's chunk messages all arrived
		}
		if c := rp.lastSeen[src] + 1; c < lmc {
			lmc = c
		}
	}
	return lmc
}

// allCollected reports whether every not-yet-released chunk message has
// been harvested.
func (s *stream) allCollected() bool {
	return len(s.collected) == s.n-s.nReleased
}

// candidateAt returns the index in collected of the message for observed
// position tt, or -1 if it cannot be identified safely yet (Axiom 1).
//
// The safety rule refines the paper's scalar LMC with the Definition 6
// tie-break: a still-missing message from sender s carries a clock of at
// least lastSeen(s)+1 (per-sender FIFO), so its smallest possible
// reference key is (lastSeen(s)+1, s). The candidate is safe when its own
// key (clock, src) precedes every such bound — strictly more permissive
// than requiring clock < LMC, and necessary to make tightly-coupled
// exchanges (halo patterns) progress, while remaining sound.
func (s *stream) candidateAt(rp *Replayer, tt int) int {
	if len(s.senders) > 0 {
		// Exact mode: the rank-R message is the j-th arrival of the
		// (senders[R], tags[R]) subsequence. Per-sender arrivals come in
		// clock order (FIFO) — and so does any tag-restricted subsequence
		// of them — so the j-th arrival clock identifies it even when the
		// application completes same-sender messages out of order
		// (Fig. 3) or a callsite serves several tags.
		r := s.refAtObs[tt]
		key := senderTag{s.senders[r], s.tags[r]}
		j := s.perKeyIndex[r]
		clocks := s.arrivals[key]
		if j >= len(clocks) {
			return -1
		}
		want := clocks[j]
		for k := range s.collected {
			if int32(s.collected[k].st.Source) == key.src && int32(s.collected[k].st.Tag) == key.tag &&
				s.collected[k].st.Clock == want {
				return k
			}
		}
		return -1 // already staged for another position (impossible) or gone
	}
	k := s.candidateIndex(tt)
	if k < 0 {
		return -1
	}
	if s.allCollected() || s.safe(rp, &s.collected[k]) {
		return k
	}
	return -1
}

// candidateIndex locates the best guess for observed position tt among the
// collected messages, ignoring the Axiom 1 safety conditions.
func (s *stream) candidateIndex(tt int) int {
	r := s.refAtObs[tt]
	k := r
	for j := 0; j < r; j++ {
		if s.released[j] {
			k--
		}
	}
	if k >= len(s.collected) {
		return -1
	}
	return k
}

// safe reports whether no still-missing chunk message can precede cand in
// the reference order. A missing message from sender s carries a clock of
// at least lastSeen(s)+1; it precedes cand iff its smallest possible key
// (bound, s) precedes (cand.clock, cand.src). A tie at exactly cand's
// clock is additionally impossible unless the record lists that clock as
// tied (chunk TiedClocks) — the record run saw the same message multiset,
// so an unlisted collision cannot occur in the replay run either.
func (s *stream) safe(rp *Replayer, cand *pooled) bool {
	cc, cs := cand.st.Clock, int32(cand.st.Source)
	for src, f := range s.frontier {
		if s.collMax[src] >= f {
			continue // sender's chunk messages all arrived
		}
		bound := rp.lastSeen[src] + 1
		if bound > cc {
			continue
		}
		if bound < cc {
			return false
		}
		// bound == cc: a colliding clock must be a recorded tie with
		// copies still missing, and even then only matters if the rival
		// sender sorts first.
		if s.tieUnresolved(cc) && src < cs {
			return false
		}
	}
	return true
}

// tieUnresolved reports whether clock cc is a recorded collision with
// copies that have not arrived yet.
func (s *stream) tieUnresolved(cc uint64) bool {
	want, isTied := s.tied[cc]
	return isTied && s.seenTied[cc] < want
}

// takeAt removes collected[k] as the message for observed position tt.
func (s *stream) takeAt(k, tt int) pooled {
	r := s.refAtObs[tt]
	s.released[r] = true
	s.nReleased++
	out := s.collected[k]
	s.releasedKey[r] = tables.MatchedEntry{Rank: int32(out.st.Source), Clock: out.st.Clock}
	s.collected = append(s.collected[:k], s.collected[k+1:]...)
	return out
}

// groupLen returns the size of the with_next group starting at the current
// observed index.
func (s *stream) groupLen() int {
	g := 1
	for s.t+g < s.n && s.withNext[int64(s.t+g-1)] {
		g++
	}
	return g
}

// consumeUnmatched consumes one failed-test occurrence if the record has
// one pending at the current position, returning true if this MF call must
// report "no match".
func (s *stream) consumeUnmatched() bool {
	if s.unmatched[s.cursorIndex()] > 0 {
		s.unmatched[s.cursorIndex()]--
		return true
	}
	return false
}

func (s *stream) unmatchedPending() bool { return s.unmatched[s.cursorIndex()] > 0 }

func (s *stream) cursorIndex() int64 {
	if s.t >= s.n {
		return int64(s.n)
	}
	return int64(s.t)
}

// --- Replayer: MPI surface -----------------------------------------------

// Rank returns the wrapped endpoint's rank.
func (rp *Replayer) Rank() int { return rp.next.Rank() }

// Size returns the world size.
func (rp *Replayer) Size() int { return rp.next.Size() }

// Send passes through; the lamport layer attaches the replayed clock.
func (rp *Replayer) Send(dst, tag int, data []byte) error {
	return rp.next.Send(dst, tag, data)
}

// Irecv passes through, registering the request for global polling.
func (rp *Replayer) Irecv(src, tag int) (*simmpi.Request, error) {
	req, err := rp.next.Irecv(src, tag)
	if err != nil {
		return nil, err
	}
	rp.outstanding = append(rp.outstanding, req)
	return req, nil
}

// Barrier passes through (deterministic).
func (rp *Replayer) Barrier() error { return rp.next.Barrier() }

// Allreduce passes through (deterministic).
func (rp *Replayer) Allreduce(v float64, op simmpi.ReduceOp) (float64, error) {
	return rp.next.Allreduce(v, op)
}

// Reduce passes through (deterministic).
func (rp *Replayer) Reduce(v float64, op simmpi.ReduceOp, root int) (float64, error) {
	return rp.next.Reduce(v, op, root)
}

// Bcast passes through (deterministic).
func (rp *Replayer) Bcast(data []byte, root int) ([]byte, error) {
	return rp.next.Bcast(data, root)
}

// Gather passes through (deterministic).
func (rp *Replayer) Gather(v float64, root int) ([]float64, error) {
	return rp.next.Gather(v, root)
}

// Allgather passes through (deterministic).
func (rp *Replayer) Allgather(v float64) ([]float64, error) {
	return rp.next.Allgather(v)
}

// pollBelow harvests completions of every outstanding receive into the
// pool in arrival order, reporting how many arrived. Harvested requests
// leave the outstanding set, which keeps its posting order; a poll that
// harvests nothing allocates nothing.
func (rp *Replayer) pollBelow() (int, error) {
	idxs, sts, err := rp.next.Testsome(rp.outstanding)
	if err != nil {
		return 0, err
	}
	if len(idxs) == 0 {
		return 0, nil
	}
	for k, i := range idxs {
		req := rp.outstanding[i]
		rp.outstanding[i] = nil
		delete(rp.appDone, req)
		rp.pool = append(rp.pool, pooled{st: sts[k], req: req})
		if src := int32(sts[k].Source); sts[k].Clock > rp.lastSeen[src] {
			rp.lastSeen[src] = sts[k].Clock
		}
	}
	kept := rp.outstanding[:0]
	for _, r := range rp.outstanding {
		if r != nil {
			kept = append(kept, r)
		}
	}
	clear(rp.outstanding[len(kept):])
	rp.outstanding = kept
	rp.mPool.Set(int64(len(rp.pool)))
	return len(idxs), nil
}

// ensureProbes posts an internal receive for every distinct spec among
// reqs that currently has no outstanding receive able to harvest the next
// message. This is how the replayer fetches a recorded message whose
// natural slot was consumed by an out-of-recorded-order arrival — the
// re-posting technique PMPI-level replay tools use. Probes are ordinary
// requests in the outstanding set; one per spec is enough, and a probe
// that never matches is as harmless as an application receive that is
// never matched. It runs on every stalled spin, so when every spec is
// already covered it allocates nothing.
func (rp *Replayer) ensureProbes(reqs []*simmpi.Request) error {
	var needed []specPair
	for _, r := range reqs {
		if r == nil {
			continue
		}
		src, tag := r.Spec()
		sp := specPair{src, tag}
		if !rp.specOutstanding(sp) && !slices.Contains(needed, sp) {
			needed = append(needed, sp)
		}
	}
	// Post in sorted spec order: posting order decides which request an
	// incoming message binds to when specs overlap, so the order of reqs
	// must not leak into an otherwise deterministic replay.
	slices.SortFunc(needed, func(a, b specPair) int {
		if a.src != b.src {
			return cmp.Compare(a.src, b.src)
		}
		return cmp.Compare(a.tag, b.tag)
	})
	for _, sp := range needed {
		probe, err := rp.next.Irecv(sp.src, sp.tag)
		if err != nil {
			return err
		}
		rp.outstanding = append(rp.outstanding, probe)
		rp.stats.ProbesPosted++
	}
	return nil
}

// specOutstanding reports whether some outstanding receive has exactly
// the spec sp.
func (rp *Replayer) specOutstanding(sp specPair) bool {
	for _, r := range rp.outstanding {
		if src, tag := r.Spec(); src == sp.src && tag == sp.tag {
			return true
		}
	}
	return false
}

// stream returns the record stream for the calling MF callsite. skip is the
// number of frames between this function and the application's MF call.
//
//go:noinline
func (rp *Replayer) stream(skip int) (*stream, error) {
	cs := uint64(0)
	name := "merged"
	if !rp.opts.DisableMFID {
		cs, name = callsite.ID(skip + 1 + rp.opts.CallsiteSkip)
	}
	s, ok := rp.streams[cs]
	if !ok {
		if rp.opts.LiveAfterExhausted {
			// The application reached a callsite the (salvaged) record never
			// saw — code past the crash point. Serve it live from now on.
			s = &stream{name: name}
			rp.goLive(s, "has no recorded stream (past the crash point)")
			rp.streams[cs] = s
			return s, nil
		}
		return nil, fmt.Errorf("%w: no recorded stream for MF callsite %s", ErrDiverged, name)
	}
	return s, nil
}

// goLive switches a callsite to live pass-through and records why.
func (rp *Replayer) goLive(s *stream, why string) {
	s.live = true
	rp.liveNotes = append(rp.liveNotes,
		fmt.Sprintf("callsite %s %s after %d replayed event(s); continuing live", s.name, why, rp.stats.Released))
}

// ensureOrLive advances the stream cursor, converting exhaustion into live
// mode when the option allows it.
func (rp *Replayer) ensureOrLive(s *stream) (bool, error) {
	if s.live {
		return true, nil
	}
	err := s.ensure()
	if err == nil {
		return false, nil
	}
	if rp.opts.LiveAfterExhausted && errors.Is(err, ErrExhausted) {
		rp.goLive(s, "exhausted its recorded stream")
		return true, nil
	}
	return false, err
}

// Live reports whether the replayer crossed the crash frontier into live
// execution, and where.
func (rp *Replayer) Live() (bool, string) {
	if len(rp.liveNotes) == 0 {
		return false, ""
	}
	return true, strings.Join(rp.liveNotes, "; ")
}

// liveDeliver hands pooled messages to the application in harvest order —
// the live phase has no record to consult, so natural arrival order is the
// execution. Up to limit messages (limit < 0: no bound) are assigned to
// compatible unused slots of reqs; the lamport clock ticks per delivery so
// piggybacked clocks stay meaningful for any rank still replaying.
func (rp *Replayer) liveDeliver(reqs []*simmpi.Request, limit int) ([]int, []simmpi.Status) {
	used := make([]bool, len(reqs))
	var idxs []int
	var sts []simmpi.Status
	kept := rp.pool[:0]
	for _, p := range rp.pool {
		if limit >= 0 && len(idxs) >= limit {
			kept = append(kept, p)
			continue
		}
		slot := -1
		for i, r := range reqs { // own binding first
			if r == p.req && !used[i] && !rp.appDone[r] {
				slot = i
				break
			}
		}
		if slot < 0 {
			for i, r := range reqs {
				if r == nil || used[i] || rp.appDone[r] {
					continue
				}
				if r.Accepts(p.st.Source, p.st.Tag) {
					slot = i
					break
				}
			}
		}
		if slot < 0 {
			kept = append(kept, p)
			continue
		}
		used[slot] = true
		idxs = append(idxs, slot)
		sts = append(sts, p.st)
		rp.finishSlot(reqs[slot])
		rp.next.TickReceive(p.st.Clock)
		if rp.opts.OnRelease != nil {
			rp.opts.OnRelease(p.st)
		}
	}
	rp.pool = kept
	rp.stats.LiveReleases += uint64(len(idxs))
	rp.mLive.Add(uint64(len(idxs)))
	return idxs, sts
}

// liveTestall is the all-or-nothing live Testall: every slot must be
// satisfiable by a distinct pooled message before anything is delivered.
func (rp *Replayer) liveTestall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	claimed := make([]int, len(reqs))
	usedPool := make([]bool, len(rp.pool))
	for i, r := range reqs {
		if r == nil || rp.appDone[r] {
			return false, nil, fmt.Errorf("replay: live Testall slot %d already consumed", i)
		}
		found := -1
		for pi, p := range rp.pool { // own binding first
			if !usedPool[pi] && p.req == r {
				found = pi
				break
			}
		}
		if found < 0 {
			for pi, p := range rp.pool {
				if !usedPool[pi] && r.Accepts(p.st.Source, p.st.Tag) {
					found = pi
					break
				}
			}
		}
		if found < 0 {
			return false, nil, nil
		}
		usedPool[found] = true
		claimed[i] = found
	}
	msgs := make([]pooled, len(claimed))
	for i, pi := range claimed {
		msgs[i] = rp.pool[pi]
	}
	kept := rp.pool[:0]
	for pi, p := range rp.pool {
		if !usedPool[pi] {
			kept = append(kept, p)
		}
	}
	rp.pool = kept
	sts := make([]simmpi.Status, len(reqs))
	for i, m := range msgs { // deliver in request order
		sts[i] = m.st
		rp.finishSlot(reqs[i])
		rp.next.TickReceive(m.st.Clock)
		if rp.opts.OnRelease != nil {
			rp.opts.OnRelease(m.st)
		}
	}
	rp.stats.LiveReleases += uint64(len(reqs))
	rp.mLive.Add(uint64(len(reqs)))
	return true, sts, nil
}

// liveWait blocks in live mode until limit deliveries (all=false) or every
// slot (all=true) completes, polling below.
func (rp *Replayer) liveWait(reqs []*simmpi.Request, limit int, all bool, what string) ([]int, []simmpi.Status, error) {
	deadline := time.Now().Add(rp.opts.Timeout) //cdc:allow(nodetermflow) live-wait deadline is a hang guard; grant order is driven by the recorded clocks
	spins := 0
	for {
		if _, err := rp.pollBelow(); err != nil {
			return nil, nil, err
		}
		if all {
			ok, sts, err := rp.liveTestall(reqs)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				idxs := make([]int, len(reqs))
				for i := range idxs {
					idxs[i] = i
				}
				return idxs, sts, nil
			}
		} else {
			idxs, sts := rp.liveDeliver(reqs, limit)
			if len(sts) > 0 {
				return idxs, sts, nil
			}
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
		if spins%1024 == 0 && time.Now().After(deadline) { //cdc:allow(nodetermflow) stall detection deadline; grant order is driven by the recorded clocks
			return nil, nil, fmt.Errorf("%w: live-phase %s past the record's end (pool %d)", ErrStalled, what, len(rp.pool))
		}
	}
}

// awaitGroup blocks until the whole with_next group at the stream cursor is
// identified and releasable, polling below. Identified members are staged
// incrementally: a member's identification can never be invalidated by
// later arrivals, so there is no rollback.
func (rp *Replayer) awaitGroup(s *stream, reqs []*simmpi.Request) ([]pooled, error) {
	g := s.groupLen()
	if s.t+g > s.n {
		return nil, fmt.Errorf("%w: with_next group at %s[%d] exceeds chunk", ErrDiverged, s.name, s.t)
	}
	for off := 1; off < g; off++ {
		if s.unmatched[int64(s.t+off)] > 0 {
			return nil, fmt.Errorf("%w: unmatched tests recorded inside a with_next group at %s[%d]",
				ErrDiverged, s.name, s.t+off)
		}
	}
	staged := make([]pooled, 0, g)
	start := time.Now() //cdc:allow(nodetermflow) staged-wait deadline is a hang guard; grant order is driven by the recorded clocks
	deadline := start.Add(rp.opts.Timeout)
	lastProgress := start
	// clockWaitStart is set while the stream holds collected-but-unreleasable
	// candidates — time the Axiom 1 clock conditions (not message arrival)
	// are what blocks progress. Only tracked when instrumented.
	var clockWaitStart time.Time
	spins := 0
	for {
		arrived, err := rp.pollBelow()
		if err != nil {
			return nil, err
		}
		s.collect(rp)
		if s.err != nil {
			return nil, s.err
		}
		progressed := arrived > 0
		for len(staged) < g {
			k := s.candidateAt(rp, s.t+len(staged))
			if k < 0 {
				break
			}
			staged = append(staged, s.takeAt(k, s.t+len(staged)))
			progressed = true
		}
		if len(staged) == g {
			rp.mWaitNs.Observe(uint64(time.Since(start))) //cdc:allow(nodetermflow) wait latency metric for observability; grants follow the recorded clocks
			if !clockWaitStart.IsZero() {
				rp.mClockWaitNs.Add(uint64(time.Since(clockWaitStart))) //cdc:allow(nodetermflow) clock-wait latency metric for observability only
			}
			return staged, nil
		}
		if rp.mClockWaitNs != nil {
			if len(s.collected) > 0 {
				if clockWaitStart.IsZero() {
					clockWaitStart = time.Now() //cdc:allow(nodetermflow) clock-wait latency metric for observability only
				}
			} else if !clockWaitStart.IsZero() {
				rp.mClockWaitNs.Add(uint64(time.Since(clockWaitStart))) //cdc:allow(nodetermflow) clock-wait latency metric for observability only
				clockWaitStart = time.Time{}
			}
		}
		if !progressed {
			rp.mStallPolls.Inc()
		}
		if progressed {
			lastProgress = time.Now() //cdc:allow(nodetermflow) optimistic-delay progress stamp; grants still follow the recorded clocks
		} else if len(s.senders) == 0 && rp.opts.OptimisticDelay >= 0 && time.Since(lastProgress) > rp.opts.OptimisticDelay { //cdc:allow(nodetermflow) optimistic-delay heuristic for live mode; recorded-order grants are unaffected
			// Strict Axiom 1 cannot certify a candidate; release the best
			// guess to keep the system live. The end-of-chunk
			// verification in verifyChunk rejects a wrong guess. A
			// candidate whose clock is a recorded collision with missing
			// copies is never guessed: its tie partners are guaranteed
			// chunk messages, so waiting for them always terminates.
			if k := s.candidateIndex(s.t + len(staged)); k >= 0 &&
				!s.tieUnresolved(s.collected[k].st.Clock) {
				staged = append(staged, s.takeAt(k, s.t+len(staged)))
				rp.stats.OptimisticReleases++
				rp.mOptimistic.Inc()
				lastProgress = time.Now() //cdc:allow(nodetermflow) optimistic-delay progress stamp; grants still follow the recorded clocks
				continue
			}
		}
		if err := rp.ensureProbes(reqs); err != nil {
			return nil, err
		}
		spins++
		if spins%64 == 0 {
			runtime.Gosched()
		}
		if spins%1024 == 0 && time.Now().After(deadline) { //cdc:allow(nodetermflow) stall detection deadline; grant order is driven by the recorded clocks
			return nil, rp.stallError(s, len(staged), g)
		}
	}
}

func (rp *Replayer) stallError(s *stream, staged, g int) error {
	base := fmt.Errorf("%w: callsite %s chunk %d: observed event %d/%d (group %d/%d staged, %d collected, lmc %d, pool %d)",
		ErrStalled, s.name, s.ci-1, s.t, s.n, staged, g, len(s.collected), s.lmc(rp), len(rp.pool))
	tt := s.t + staged
	if len(s.senders) == 0 || tt >= s.n {
		return base
	}
	r := s.refAtObs[tt]
	key := senderTag{s.senders[r], s.tags[r]}
	var pooled []string
	for _, p := range rp.pool {
		pooled = append(pooled, fmt.Sprintf("(%d,%d,tag%d)", p.st.Source, p.st.Clock, p.st.Tag))
	}
	return fmt.Errorf("%v; awaiting rank %d = arrival %d of (sender %d, tag %d) (have %d); pool=%v specs=%v",
		base, r, s.perKeyIndex[r], key.src, key.tag, len(s.arrivals[key]), pooled, s.specs)
}

// assignSlot picks the request slot to report a released message through:
// the message's own binding if the app still owns it, otherwise any
// app-owned request with a compatible spec.
func (rp *Replayer) assignSlot(reqs []*simmpi.Request, used []bool, m pooled) (int, error) {
	for i, r := range reqs {
		if r == m.req && !used[i] && !rp.appDone[r] {
			return i, nil
		}
	}
	for i, r := range reqs {
		if r == nil || used[i] || rp.appDone[r] {
			continue
		}
		if r.Accepts(m.st.Source, m.st.Tag) {
			return i, nil
		}
	}
	var slots []string
	for i, r := range reqs {
		if r == nil {
			slots = append(slots, "nil")
			continue
		}
		src, tag := r.Spec()
		slots = append(slots, fmt.Sprintf("%d:(%d,%d,used=%v,done=%v)", i, src, tag, used[i], rp.appDone[r]))
	}
	return -1, fmt.Errorf("%w: no request slot accepts replayed message from rank %d tag %d clock %d (slots %v)",
		ErrDiverged, m.st.Source, m.st.Tag, m.st.Clock, slots)
}

// finishSlot marks a slot virtually complete. If its own binding is still
// pending below it stays in the outstanding set and keeps being polled.
func (rp *Replayer) finishSlot(r *simmpi.Request) {
	if slices.Contains(rp.outstanding, r) {
		rp.appDone[r] = true
	}
}

// release hands the group's messages to the app through slots of reqs,
// ticking the lamport clock per event in observed order. If ordered is
// true, group member i is assigned to reqs[i] (Waitall semantics: the
// record's rows are in request order); otherwise slots are chosen by
// binding or spec.
func (rp *Replayer) release(s *stream, reqs []*simmpi.Request, group []pooled, ordered bool) ([]int, []simmpi.Status, error) {
	used := make([]bool, len(reqs))
	idxs := make([]int, len(group))
	sts := make([]simmpi.Status, len(group))
	for gi, m := range group {
		var slot int
		if ordered {
			slot = gi
			if reqs[slot] == nil || rp.appDone[reqs[slot]] {
				return nil, nil, fmt.Errorf("%w: Waitall slot %d already completed", ErrDiverged, slot)
			}
			if !reqs[slot].Accepts(m.st.Source, m.st.Tag) {
				return nil, nil, fmt.Errorf("%w: Waitall slot %d does not accept replayed message from rank %d tag %d",
					ErrDiverged, slot, m.st.Source, m.st.Tag)
			}
		} else {
			var err error
			slot, err = rp.assignSlot(reqs, used, m)
			if err != nil {
				return nil, nil, err
			}
		}
		used[slot] = true
		idxs[gi] = slot
		sts[gi] = m.st
		rp.finishSlot(reqs[slot])
		rp.next.TickReceive(m.st.Clock)
		if rp.opts.OnRelease != nil {
			rp.opts.OnRelease(m.st)
		}
	}
	rp.stats.Released += uint64(len(group))
	rp.mReleases.Add(uint64(len(group)))
	s.t += len(group)
	if s.nReleased >= s.n && s.n > 0 {
		rp.stats.ChunksVerified++
	}
	if err := s.verifyChunk(); err != nil {
		return nil, nil, err
	}
	return idxs, sts, nil
}

// matchedCall releases the group at the cursor through reqs.
func (rp *Replayer) matchedCall(s *stream, reqs []*simmpi.Request, ordered bool) ([]int, []simmpi.Status, error) {
	group, err := rp.awaitGroup(s, reqs)
	if err != nil {
		return nil, nil, err
	}
	return rp.release(s, reqs, group, ordered)
}

// testFamily is the shared body of Test/Testany/Testsome. liveLimit bounds
// how many events a live-phase call may deliver (Test/Testany complete at
// most one; Testsome passes -1).
func (rp *Replayer) testFamily(s *stream, reqs []*simmpi.Request, liveLimit int) (bool, []int, []simmpi.Status, error) {
	live, err := rp.ensureOrLive(s)
	if err != nil {
		return false, nil, nil, err
	}
	if live {
		if _, err := rp.pollBelow(); err != nil {
			return false, nil, nil, err
		}
		idxs, sts := rp.liveDeliver(reqs, liveLimit)
		return len(sts) > 0, idxs, sts, nil
	}
	s.learnSpecs(reqs)
	if _, err := rp.pollBelow(); err != nil {
		return false, nil, nil, err
	}
	s.collect(rp)
	if s.err != nil {
		return false, nil, nil, s.err
	}
	if s.consumeUnmatched() {
		rp.stats.UnmatchedConsumed++
		return false, nil, nil, nil
	}
	idxs, sts, err := rp.matchedCall(s, reqs, false)
	return err == nil, idxs, sts, err
}

// waitFamily is the shared body of Wait/Waitany/Waitsome/Waitall. liveLimit
// bounds a live-phase call's deliveries (Wait/Waitany 1, Waitsome -1);
// ordered (Waitall) makes the live phase all-or-nothing too.
func (rp *Replayer) waitFamily(s *stream, reqs []*simmpi.Request, ordered bool, what string, liveLimit int) ([]int, []simmpi.Status, error) {
	live, err := rp.ensureOrLive(s)
	if err != nil {
		return nil, nil, err
	}
	if live {
		return rp.liveWait(reqs, liveLimit, ordered, what)
	}
	s.learnSpecs(reqs)
	if s.unmatchedPending() {
		return nil, nil, fmt.Errorf("%w: unmatched tests recorded at %s callsite %s", ErrDiverged, what, s.name)
	}
	return rp.matchedCall(s, reqs, ordered)
}

// Test replays a single-request test.
func (rp *Replayer) Test(req *simmpi.Request) (bool, simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return false, simmpi.Status{}, err
	}
	ok, _, sts, err := rp.testFamily(s, []*simmpi.Request{req}, 1)
	if err != nil || !ok {
		return false, simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return false, simmpi.Status{}, fmt.Errorf("%w: Test released %d events", ErrDiverged, len(sts))
	}
	return true, sts[0], nil
}

// Testany replays a test over a set, completing at most one request.
func (rp *Replayer) Testany(reqs []*simmpi.Request) (int, bool, simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return -1, false, simmpi.Status{}, err
	}
	ok, idxs, sts, err := rp.testFamily(s, reqs, 1)
	if err != nil || !ok {
		return -1, false, simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return -1, false, simmpi.Status{}, fmt.Errorf("%w: Testany released %d events", ErrDiverged, len(sts))
	}
	return idxs[0], true, sts[0], nil
}

// Testsome replays a multi-completion test.
func (rp *Replayer) Testsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return nil, nil, err
	}
	ok, idxs, sts, err := rp.testFamily(s, reqs, -1)
	if err != nil || !ok {
		return nil, nil, err
	}
	return idxs, sts, nil
}

// Testall replays an all-or-nothing test: a recorded failed test returns
// false; a recorded matched set is released in request order like Waitall.
func (rp *Replayer) Testall(reqs []*simmpi.Request) (bool, []simmpi.Status, error) {
	if len(reqs) == 0 {
		return true, nil, nil
	}
	s, err := rp.stream(2)
	if err != nil {
		return false, nil, err
	}
	live, err := rp.ensureOrLive(s)
	if err != nil {
		return false, nil, err
	}
	if live {
		if _, err := rp.pollBelow(); err != nil {
			return false, nil, err
		}
		return rp.liveTestall(reqs)
	}
	s.learnSpecs(reqs)
	if _, err := rp.pollBelow(); err != nil {
		return false, nil, err
	}
	s.collect(rp)
	if s.err != nil {
		return false, nil, s.err
	}
	if s.consumeUnmatched() {
		return false, nil, nil
	}
	idxs, sts, err := rp.matchedCall(s, reqs, true)
	if err != nil {
		return false, nil, err
	}
	if len(sts) != len(reqs) {
		return false, nil, fmt.Errorf("%w: Testall over %d requests released %d events", ErrDiverged, len(reqs), len(sts))
	}
	out := make([]simmpi.Status, len(reqs))
	for k, i := range idxs {
		out[i] = sts[k]
	}
	return true, out, nil
}

// Wait replays a blocking single-request wait.
func (rp *Replayer) Wait(req *simmpi.Request) (simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return simmpi.Status{}, err
	}
	_, sts, err := rp.waitFamily(s, []*simmpi.Request{req}, false, "Wait", 1)
	if err != nil {
		return simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return simmpi.Status{}, fmt.Errorf("%w: Wait released %d events", ErrDiverged, len(sts))
	}
	return sts[0], nil
}

// Waitany replays a blocking wait over a set.
func (rp *Replayer) Waitany(reqs []*simmpi.Request) (int, simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return -1, simmpi.Status{}, err
	}
	idxs, sts, err := rp.waitFamily(s, reqs, false, "Waitany", 1)
	if err != nil {
		return -1, simmpi.Status{}, err
	}
	if len(sts) != 1 {
		return -1, simmpi.Status{}, fmt.Errorf("%w: Waitany released %d events", ErrDiverged, len(sts))
	}
	return idxs[0], sts[0], nil
}

// Waitsome replays a blocking multi-completion wait.
func (rp *Replayer) Waitsome(reqs []*simmpi.Request) ([]int, []simmpi.Status, error) {
	s, err := rp.stream(2)
	if err != nil {
		return nil, nil, err
	}
	return rp.waitFamily(s, reqs, false, "Waitsome", -1)
}

// Waitall replays a wait for every request. The record's with_next group
// rows are in request order (that is how Waitall reports statuses), so
// group member i maps to reqs[i].
func (rp *Replayer) Waitall(reqs []*simmpi.Request) ([]simmpi.Status, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	s, err := rp.stream(2)
	if err != nil {
		return nil, err
	}
	idxs, sts, err := rp.waitFamily(s, reqs, true, "Waitall", -1)
	if err != nil {
		return nil, err
	}
	if len(sts) != len(reqs) {
		return nil, fmt.Errorf("%w: Waitall over %d requests released %d events", ErrDiverged, len(reqs), len(sts))
	}
	out := make([]simmpi.Status, len(reqs))
	for k, i := range idxs {
		out[i] = sts[k]
	}
	return out, nil
}

// Stats returns the replayer's counters.
func (rp *Replayer) Stats() Stats { return rp.stats }

// Clock exposes the underlying lamport layer's current clock so a recorder
// stacked on top of a replayer (DST property P2) can discover the clock
// source exactly as it would on a plain lamport layer.
func (rp *Replayer) Clock() uint64 { return rp.next.Clock() }

// Verify reports leftover state after the application finished: unreplayed
// record events or unreleased pooled messages. Once the replay crossed into
// live execution (LiveAfterExhausted) the suffix is non-deterministic and
// leftover state is expected, so Verify reports nothing.
func (rp *Replayer) Verify() error {
	if live, _ := rp.Live(); live {
		return nil
	}
	var problems []error
	// Iterate streams in sorted-name order so Verify's error text is
	// stable run to run (map order would shuffle the problem list).
	streams := make([]*stream, 0, len(rp.streams))
	for _, s := range rp.streams { //cdc:allow(maporder) sorted by name immediately below
		streams = append(streams, s)
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].name < streams[j].name })
	for _, s := range streams {
		remaining := int(s.total - s.seen)
		if s.loaded {
			remaining += s.n - s.t
		}
		if remaining > 0 {
			problems = append(problems, fmt.Errorf("replay: %s has %d unreplayed events", s.name, remaining))
		}
	}
	if len(rp.pool) > 0 {
		problems = append(problems, fmt.Errorf("replay: %d messages pooled but never released", len(rp.pool)))
	}
	return errors.Join(problems...)
}
