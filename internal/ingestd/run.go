package ingestd

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"cdcreplay/internal/core"
	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/store"
)

// ingestApp is the manifest App stamp for daemon-recorded runs.
const ingestApp = "ingest"

// segment is a sealed, not-yet-acked span of one rank's record: everything
// between two durable flush cuts.
type segment struct {
	// end is the rank's logical-event offset at the segment's cut.
	end uint64
	// clock is the cut's flush-mark clock.
	clock uint64
	// maxRef holds, per OTHER rank, the largest piggybacked clock the
	// segment's matched events reference. The segment is acked only once
	// it sits inside the run's maximal self-consistent cut: every
	// referenced rank holds a durable cut at or past that clock which
	// itself survives the cross-rank trim. store salvage retains any
	// self-consistent cut, so an ack is a durable exactly-once promise
	// even across a daemon crash.
	maxRef map[int]uint64
}

// rankState is one rank's ingest state within a run. All fields are
// guarded by the owning run's mu.
type rankState struct {
	rank int
	blob store.BlobWriter
	enc  *core.Encoder

	// names tracks callsites registered with THIS encoder instance, so a
	// client resending names after reconnect does not double-register.
	names map[uint64]bool
	// openGroups counts callsites whose last row had WithNext set: their
	// pending events sit in an unfinished MF group, and core.FlushAll
	// would skip them (writing no durable mark), so sealing waits until
	// every group closes.
	midGroup   map[uint64]bool
	openGroups int

	// offset counts logical events consumed into the encoder.
	offset uint64
	// clock is the largest producer clock observed, stamped on cuts.
	clock uint64
	// rowsSinceSeal counts logical events since the last durable cut.
	rowsSinceSeal uint64
	// pendingRef accumulates the next segment's maxRef.
	pendingRef map[int]uint64
	lastSeal   time.Time

	// segments are sealed spans awaiting the cross-rank ack barrier.
	segments []segment
	// acked is the offset promised durable to the client; ackedClock the
	// flush clock of the last acked cut.
	acked      uint64
	ackedClock uint64

	diskAccounted int64 // enc.BytesWritten() already charged to the tenant

	sess         *session
	everAttached bool
	resumed      bool // reopened from an on-disk record at daemon start
	finished     bool // client Finish observed and fully drained
	closed       bool // encoder closed (no further appends this process)
	err          error
}

// run is one (tenant, run) record store being ingested.
type run struct {
	key    string
	tenant *tenantState
	st     store.Store
	ranks  int

	// mu guards every rankState and the fields below. Coarse per-run
	// locking is deliberate: contention exists only between ranks of the
	// same run (rare — each rank has its own session and worker shard),
	// while distinct runs ingest fully in parallel.
	mu        sync.Mutex
	rankState map[int]*rankState
	finalized bool
}

// openRun finds or creates the run's record store. Called with the
// server mu held (run creation is rare; steady-state attaches hit the
// in-memory map first).
func (s *Server) openRun(tenant *tenantState, h ingestwire.Hello) (*run, *ingestwire.Reject) {
	key := h.Tenant + "/" + h.Run
	if r := s.runs[key]; r != nil {
		if r.ranks != h.Ranks {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectRanksConflict,
				Msg: fmt.Sprintf("run %s has %d ranks, hello says %d", key, r.ranks, h.Ranks)}
		}
		return r, nil
	}
	st, err := s.root.Open(key)
	if err != nil {
		return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
	}
	m, err := st.Manifest()
	switch {
	case err == nil:
		if m.Ranks != h.Ranks {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectRanksConflict,
				Msg: fmt.Sprintf("run %s recorded %d ranks, hello says %d", key, m.Ranks, h.Ranks)}
		}
		// Mark the run in-progress again so a crash mid-append is seen by
		// the next restart's salvage instead of passing for complete.
		if _, err := st.Reopen(); err != nil {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
		}
	case errors.Is(err, fs.ErrNotExist):
		if err := st.Create(store.Manifest{Ranks: h.Ranks, App: ingestApp}); err != nil {
			return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
		}
	default:
		return nil, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
	}
	r := &run{key: key, tenant: tenant, st: st, ranks: h.Ranks, rankState: make(map[int]*rankState)}
	s.runs[key] = r
	return r, nil
}

// openRank finds or opens one rank's record blob and encoder. Called with
// the run's mu held.
func (s *Server) openRank(r *run, rank int) (*rankState, error) {
	if rs := r.rankState[rank]; rs != nil {
		if rs.err != nil {
			return nil, rs.err
		}
		return rs, nil
	}
	w, resume, err := r.st.AppendRank(rank)
	if err != nil {
		return nil, err
	}
	rs := &rankState{
		rank:     rank,
		blob:     w,
		names:    make(map[uint64]bool),
		midGroup: make(map[uint64]bool),
		lastSeal: time.Now(),
	}
	opts := core.EncoderOptions{
		ChunkEvents:  s.cfg.ChunkEvents,
		Durable:      s.cfg.Durable,
		Obs:          s.cfg.Obs,
		SeekableCuts: r.st.Seekable(),
		// Every durable seal also commits an epoch-index entry into the
		// manifest, so replay tooling can read the run mid-ingest pinned to
		// the last committed cut.
		OnFlushPoint: func(clock, events uint64, offset int64) error {
			return w.Commit(store.Cut{Clock: clock, Events: events, Offset: offset})
		},
	}
	if resume {
		// Everything already on disk survived salvage, so it is durable
		// AND run-consistent: the resumed frontier starts fully acked.
		events, clock, err := store.RankFrontier(r.st, rank)
		if err != nil {
			w.Close() //cdc:allow(errsink) open failed; best-effort release
			return nil, err
		}
		rs.offset, rs.clock = events, clock
		rs.acked, rs.ackedClock = events, clock
		rs.resumed = true
		opts.Resume, opts.ResumeClock = true, clock
	}
	rs.enc, err = core.NewEncoder(w, opts)
	if err != nil {
		w.Close() //cdc:allow(errsink) open failed; best-effort release
		return nil, err
	}
	r.rankState[rank] = rs
	return rs, nil
}

// observe feeds one wire row into the rank's encoder. Caller holds the
// run's mu.
func (r *run) observe(rs *rankState, row ingestwire.Row) error {
	if rs.closed {
		return fmt.Errorf("rank %d: row after finish", rs.rank)
	}
	ev := row.Ev
	if ev.Flag {
		if int(ev.Rank) < 0 || int(ev.Rank) >= r.ranks {
			return fmt.Errorf("rank %d: matched event references rank %d of %d", rs.rank, ev.Rank, r.ranks)
		}
	} else if ev.Count == 0 {
		return fmt.Errorf("rank %d: unmatched row with zero count", rs.rank)
	}
	if row.Name != "" && !rs.names[row.Callsite] {
		if err := rs.enc.RegisterCallsite(row.Callsite, row.Name); err != nil {
			return err
		}
		rs.names[row.Callsite] = true
	}
	if err := rs.enc.Observe(row.Callsite, ev); err != nil {
		return err
	}
	open := ev.Flag && ev.WithNext
	if rs.midGroup[row.Callsite] != open {
		rs.midGroup[row.Callsite] = open
		if open {
			rs.openGroups++
		} else {
			rs.openGroups--
		}
	}
	if ev.Flag && int(ev.Rank) != rs.rank {
		if rs.pendingRef == nil {
			rs.pendingRef = make(map[int]uint64)
		}
		if ev.Clock > rs.pendingRef[int(ev.Rank)] {
			rs.pendingRef[int(ev.Rank)] = ev.Clock
		}
	}
	if row.Clock > rs.clock {
		rs.clock = row.Clock
	}
	w := row.Weight()
	rs.offset += w
	rs.rowsSinceSeal += w
	return nil
}

// seal writes a durable flush cut for the rank, turning everything
// observed so far into a barrier-gated segment. A no-op while an MF group
// is open (the cut would skip that stream and carry no mark) or when
// nothing new was observed. Caller holds the run's mu.
func (r *run) seal(rs *rankState) error {
	if rs.closed || rs.rowsSinceSeal == 0 || rs.openGroups > 0 {
		return nil
	}
	before := rs.enc.Stats().FlushPoints
	if err := rs.enc.FlushAll(rs.clock); err != nil {
		return err
	}
	if rs.enc.Stats().FlushPoints == before {
		// No mark was written (an open group slipped past the openGroups
		// accounting): the cut is not durable, so nothing is sealed.
		return nil
	}
	rs.pushSegment()
	return r.chargeDisk(rs)
}

// closeRank finishes the rank's record: every pending stream flushes and
// the final mark makes the whole stream durable. Caller holds the run's
// mu.
func (r *run) closeRank(rs *rankState) error {
	if rs.closed {
		return nil
	}
	rs.closed = true
	if err := rs.enc.Close(); err != nil {
		return err
	}
	if rs.rowsSinceSeal > 0 {
		rs.pushSegment()
	}
	if err := r.chargeDisk(rs); err != nil {
		return err
	}
	err := rs.blob.Close()
	rs.blob = nil
	return err
}

func (rs *rankState) pushSegment() {
	rs.segments = append(rs.segments, segment{end: rs.offset, clock: rs.clock, maxRef: rs.pendingRef})
	rs.pendingRef = nil
	rs.rowsSinceSeal = 0
	rs.lastSeal = time.Now()
}

// chargeDisk accounts the encoder's new compressed bytes to the tenant.
func (r *run) chargeDisk(rs *rankState) error {
	n := rs.enc.BytesWritten()
	d := n - rs.diskAccounted
	rs.diskAccounted = n
	if !r.tenant.addDisk(d) {
		return &quotaDiskError{tenant: r.tenant.name}
	}
	return nil
}

// quotaDiskError marks a disk-quota kill so the session layer can report
// RejectQuotaDisk instead of a generic failure.
type quotaDiskError struct{ tenant string }

func (e *quotaDiskError) Error() string {
	return fmt.Sprintf("tenant %s over disk quota", e.tenant)
}

// advanceAcks runs the cross-rank ack barrier: it computes the MAXIMAL
// self-consistent cut over sealed segments — start from every rank's full
// sealed frontier and trim tail segments whose references exceed another
// rank's retained clock, cascading until stable — then acks everything
// retained. This mirrors store.PlanSalvage's trim exactly: salvage keeps
// any self-consistent cut, and adding later segments can only extend (never
// invalidate) a consistent prefix, so acked data survives every future
// crash. A least fixed point ("refs must already be ACKED") would deadlock
// here: ranks whose final segments reference each other form a cycle that
// only the maximal solution resolves. Caller holds the run's mu.
func (r *run) advanceAcks() {
	keep := make(map[int]int, len(r.rankState))
	front := make(map[int]uint64, len(r.rankState))
	for rank, rs := range r.rankState {
		keep[rank] = len(rs.segments)
		front[rank] = frontierClock(rs, len(rs.segments))
	}
	for changed := true; changed; {
		changed = false
		for rank, rs := range r.rankState {
			k := keep[rank]
			for k > 0 && !refsCovered(rank, rs.segments[k-1].maxRef, front) {
				k--
				changed = true
			}
			if k != keep[rank] {
				keep[rank] = k
				front[rank] = frontierClock(rs, k)
			}
		}
	}
	for rank, rs := range r.rankState {
		k := keep[rank]
		if k == 0 {
			continue
		}
		for i := 0; i < k; i++ {
			seg := rs.segments[i]
			rs.acked = seg.end
			if seg.clock > rs.ackedClock {
				rs.ackedClock = seg.clock
			}
		}
		rs.segments = rs.segments[k:]
	}
}

// frontierClock is rank rs's retained flush clock when its first k sealed
// segments are kept: the acked clock advanced through those cuts.
func frontierClock(rs *rankState, k int) uint64 {
	c := rs.ackedClock
	for i := 0; i < k; i++ {
		if rs.segments[i].clock > c {
			c = rs.segments[i].clock
		}
	}
	return c
}

// refsCovered reports whether every cross-rank reference in maxRef lands at
// or below the referenced rank's retained frontier clock. A rank that never
// attached has no durable data, so any reference to it fails.
func refsCovered(self int, maxRef map[int]uint64, front map[int]uint64) bool {
	for rank, clock := range maxRef {
		if rank == self {
			continue
		}
		if f, ok := front[rank]; !ok || f < clock {
			return false
		}
	}
	return true
}

// maybeFinalize marks the run complete once every declared rank finished
// and fully acked. Caller holds the run's mu.
func (r *run) maybeFinalize() error {
	if r.finalized || len(r.rankState) != r.ranks {
		return nil
	}
	for _, rs := range r.rankState {
		if !rs.finished || !rs.closed || len(rs.segments) > 0 {
			return nil
		}
	}
	if err := r.st.Finalize(); err != nil {
		return err
	}
	r.finalized = true
	return nil
}
