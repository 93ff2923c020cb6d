// Package ingestd is the record-ingest daemon: a TCP server that accepts
// order-record streams from many concurrent application instances and
// feeds them through the CDC encode pipeline into per-tenant record
// directories (DESIGN.md §12).
//
// Robustness is the point of the package, not a feature of it:
//
//   - Bounded per-session queues shed into THROTTLE backpressure instead
//     of growing without bound when the encoder falls behind.
//   - Per-tenant quotas cap sessions, ingest rate, and disk, with typed
//     rejection codes a client can classify as retryable or fatal.
//   - Every ACKed offset is a durable, exactly-once promise: it names
//     events that are on disk past a flush cut AND whose cross-rank
//     references are themselves acked, so even a SIGKILL followed by the
//     startup salvage sweep (store.Root.SalvageAll) cannot trim them.
//     Clients resume from the server-stated offset after any disconnect.
//   - Graceful drain (SIGTERM) flushes, fsyncs, and finalizes manifests;
//     crash recovery (restart) salvages every incomplete run before
//     accepting the first session.
package ingestd

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdcreplay/internal/ingestwire"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/spsc"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
)

// Config parameterizes a Server. Zero values take defaults.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Root is the multi-tenant record root directory; runs land under
	// Root/<tenant>/<run>/ in the dir layout. Ignored when Store is set.
	Root string
	// Store overrides the storage backend: any store.Root (e.g.
	// shardstore.OpenRoot for the sharded layout, memstore.OpenRoot for
	// deterministic simulation). Nil means the dir layout under Root.
	Store store.Root
	// Workers is the ingest shard count; sessions are assigned
	// round-robin. Default 4.
	Workers int
	// QueueCap is the per-session row queue capacity (rounded up to a
	// power of two). Default 1024.
	QueueCap int
	// IdleTimeout reaps sessions with no inbound frames. Default 30s.
	IdleTimeout time.Duration
	// WriteTimeout bounds any single outbound frame write. Default 10s.
	WriteTimeout time.Duration
	// FlushInterval is the worker housekeeping cadence: at least this
	// often each active rank seals a durable cut and acks advance.
	// Default 50ms.
	FlushInterval time.Duration
	// SealEvents seals a rank's cut early once this many logical events
	// accumulated since the last cut, keeping ack latency flat under
	// load. Default 4096.
	SealEvents uint64
	// ChunkEvents is the encoder chunk size. Default 512 (smaller than
	// the offline default: the daemon flushes often, and an oversized
	// chunk target just pads seal latency).
	ChunkEvents int
	// Durable fsyncs records at every seal, making ACKs machine-crash
	// durable rather than process-crash durable. Default false.
	Durable bool
	// DefaultQuota applies to tenants absent from Quotas.
	DefaultQuota Quota
	// Quotas maps tenant name to quota.
	Quotas map[string]Quota
	// Obs receives the daemon's instruments (nil disables).
	Obs *obs.Registry
}

func (c *Config) fill() {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1024
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.SealEvents == 0 {
		c.SealEvents = 4096
	}
	if c.ChunkEvents == 0 {
		c.ChunkEvents = 512
	}
}

// Server is the ingest daemon.
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	runs     map[string]*run
	tenants  map[string]*tenantState
	sessions map[uint64]*session
	seq      uint64

	workers  []*worker
	stop     chan struct{}
	stopOnce sync.Once
	draining atomic.Bool
	acceptWg sync.WaitGroup
	sessWg   sync.WaitGroup
	workerWg sync.WaitGroup

	root     store.Root
	salvaged []store.RunSalvage

	// pauseWorkers suspends queue draining; the throttle tests use it to
	// force the bounded queues full.
	pauseWorkers atomic.Bool

	sessGauge   *obs.Gauge
	sessTotal   *obs.Counter
	throttles   *obs.Counter
	resumes     *obs.Counter
	rejects     *obs.Counter
	events      *obs.Counter
	enqueueHist *obs.Histogram
	queueIns    spsc.Instruments
}

// New prepares a server over the record root, salvaging every run a
// previous process left incomplete so each rank's on-disk frontier is a
// consistent, appendable record before any client resumes onto it. Runs
// whose manifest is unreadable garbage are skipped with a finding (see
// Salvaged) rather than aborting startup: one damaged tenant directory
// must not turn into a full-root outage. Real salvage failures still
// abort — resuming onto an inconsistent frontier would break the
// exactly-once ack promise.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	root := cfg.Store
	if root == nil {
		root = dirstore.OpenRoot(cfg.Root)
	}
	salvaged, err := root.SalvageAll()
	if err != nil {
		return nil, fmt.Errorf("ingestd: salvaging %s: %w", cfg.Root, err)
	}
	for _, rs := range salvaged {
		if rs.Err != nil {
			return nil, fmt.Errorf("ingestd: salvaging run %s: %w", rs.Dir, rs.Err)
		}
	}
	reg := cfg.Obs
	s := &Server{
		cfg:      cfg,
		root:     root,
		runs:     make(map[string]*run),
		tenants:  make(map[string]*tenantState),
		sessions: make(map[uint64]*session),
		stop:     make(chan struct{}),
		salvaged: salvaged,

		sessGauge:   reg.Gauge("ingest.sessions"),
		sessTotal:   reg.Counter("ingest.sessions.total"),
		throttles:   reg.Counter("ingest.throttles"),
		resumes:     reg.Counter("ingest.resumes"),
		rejects:     reg.Counter("ingest.rejects"),
		events:      reg.Counter("ingest.events"),
		enqueueHist: reg.Histogram("ingest.enqueue.ns", obs.LatencyBounds()),
		queueIns: spsc.Instruments{
			Enqueued: reg.Counter("ingest.queue.enqueued"),
			Stalls:   reg.Counter("ingest.queue.stalls"),
			Depth:    reg.Gauge("ingest.queue.depth"),
		},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers = append(s.workers, &worker{srv: s, notify: make(chan struct{}, 1)})
	}
	return s, nil
}

// Salvaged reports what startup recovery found, including skipped
// directories (RunSalvage.Skipped with the finding text).
func (s *Server) Salvaged() []store.RunSalvage { return s.salvaged }

// Start begins listening and serving.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for _, w := range s.workers {
		s.workerWg.Add(1)
		go w.loop()
	}
	s.acceptWg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr is the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.sessWg.Add(1)
		go func() {
			defer s.sessWg.Done()
			s.handleConn(c)
		}()
	}
}

// pathSafe accepts names usable as a single path element.
func pathSafe(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\\x00")
}

// handshake validates a Hello and attaches sess to its rank — atomically,
// so two concurrent handshakes for the same rank cannot both pass the
// busy check. Returns the resume offset to state in the Welcome.
func (s *Server) handshake(h ingestwire.Hello, sess *session) (uint64, *ingestwire.Reject) {
	if h.Version != ingestwire.Version {
		return 0, &ingestwire.Reject{Code: ingestwire.RejectVersion,
			Msg: fmt.Sprintf("server speaks version %d, client %d", ingestwire.Version, h.Version)}
	}
	if s.draining.Load() {
		return 0, &ingestwire.Reject{Code: ingestwire.RejectDraining, Msg: "server is draining"}
	}
	if !pathSafe(h.Tenant) || !pathSafe(h.Run) {
		return 0, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: "tenant and run must be path-safe names"}
	}

	s.mu.Lock()
	tenant := s.tenants[h.Tenant]
	if tenant == nil {
		q, ok := s.cfg.Quotas[h.Tenant]
		if !ok {
			q = s.cfg.DefaultQuota
		}
		tenant = newTenantState(h.Tenant, q, s.cfg.Obs)
		s.tenants[h.Tenant] = tenant
	}
	if !tenant.tryAcquireSession() {
		s.mu.Unlock()
		return 0, &ingestwire.Reject{Code: ingestwire.RejectQuotaSessions,
			Msg: fmt.Sprintf("tenant %s at %d concurrent sessions", h.Tenant, tenant.quota.MaxSessions)}
	}
	if tenant.overDisk() {
		tenant.releaseSession()
		s.mu.Unlock()
		return 0, &ingestwire.Reject{Code: ingestwire.RejectQuotaDisk,
			Msg: fmt.Sprintf("tenant %s over disk quota", h.Tenant)}
	}
	r, rej := s.openRun(tenant, h)
	if rej != nil {
		tenant.releaseSession()
		s.mu.Unlock()
		return 0, rej
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	r.mu.Lock()
	rs, err := s.openRank(r, h.Rank)
	if err == nil && rs.sess != nil {
		// Either a concurrent duplicate client or — the common case after
		// a client-side reconnect — the previous connection's queue is
		// still draining. Retryable: the client backs off and redials.
		err = fmt.Errorf("run %s rank %d has a live session", r.key, h.Rank)
		r.mu.Unlock()
		tenant.releaseSession()
		s.dropSession(sess.id)
		return 0, &ingestwire.Reject{Code: ingestwire.RejectRankBusy, Msg: err.Error()}
	}
	if err != nil {
		r.mu.Unlock()
		tenant.releaseSession()
		s.dropSession(sess.id)
		return 0, &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
	}
	sess.tenant, sess.run, sess.rs = tenant, r, rs
	rs.sess = sess
	offset := rs.offset
	if rs.everAttached || rs.resumed {
		s.resumes.Inc()
	}
	rs.everAttached = true
	r.mu.Unlock()
	return offset, nil
}

func (s *Server) dropSession(id uint64) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

func (s *Server) handleConn(nc net.Conn) {
	wc := ingestwire.NewConn(nc)
	nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //cdc:allow(errsink) deadline set on live conn; read reports failure
	kind, payload, err := wc.ReadFrame()
	if err != nil || kind != ingestwire.KindHello {
		nc.Close() //cdc:allow(errsink) teardown of an unusable conn
		return
	}

	s.mu.Lock()
	s.seq++
	sess := &session{
		id:     s.seq,
		srv:    s,
		nc:     nc,
		wc:     wc,
		worker: s.workers[int(s.seq)%len(s.workers)],
		q:      spsc.New[ingestwire.Row](s.cfg.QueueCap),
	}
	sess.q.Instrument(s.queueIns)
	s.mu.Unlock()

	h, err := ingestwire.ParseHello(payload)
	var rej *ingestwire.Reject
	var offset uint64
	if err != nil {
		rej = &ingestwire.Reject{Code: ingestwire.RejectMalformed, Msg: err.Error()}
	} else {
		offset, rej = s.handshake(h, sess)
	}
	if rej != nil {
		s.rejects.Inc()
		nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //cdc:allow(errsink) best-effort reject delivery
		wc.WriteReject(ingestwire.KindReject, *rej)             //cdc:allow(errsink) best-effort reject delivery
		nc.Close()                                              //cdc:allow(errsink) teardown after reject
		return
	}

	s.sessGauge.Add(1)
	s.sessTotal.Inc()

	if err := sess.writeFrame(func(c *ingestwire.Conn) error {
		return c.WriteWelcome(ingestwire.Welcome{Session: sess.id, Offset: offset})
	}); err != nil {
		sess.dead.Store(true)
		sess.q.Close()
		nc.Close() //cdc:allow(errsink) teardown of a dead conn
	}
	sess.welcomed.Store(true)
	sess.worker.adopt(sess)
	if !sess.dead.Load() {
		sess.readLoop()
	}
}

// detach finishes a dead session's teardown after its queue drained.
// Called by the owning worker.
func (s *Server) detach(sess *session) {
	sess.run.mu.Lock()
	if sess.rs.sess == sess {
		sess.rs.sess = nil
	}
	sess.run.mu.Unlock()
	sess.tenant.releaseSession()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.sessGauge.Add(-1)
}

// Drain gracefully stops the server: new handshakes are rejected with
// RejectDraining, every live session is told to finish, and once sessions
// are gone (or ctx expires and they are cut) all open ranks are flushed,
// fsynced, and — for runs whose every rank finished — finalized.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for _, sess := range s.sessions {
		go func(sess *session) {
			sess.writeFrame(func(c *ingestwire.Conn) error { //cdc:allow(errsink) advisory frame to a session that may be dying
				return c.WriteFrame(ingestwire.KindDrain, []byte{0})
			})
		}(sess)
	}
	s.mu.Unlock()

	deadline := time.NewTicker(2 * time.Millisecond)
	defer deadline.Stop()
	var expired bool
	for {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		select {
		case <-ctx.Done():
			expired = true
		case <-deadline.C:
		}
		if expired {
			s.mu.Lock()
			for _, sess := range s.sessions {
				sess.nc.Close() //cdc:allow(errsink) forced teardown at drain deadline
				sess.q.Close()
			}
			s.mu.Unlock()
			break
		}
	}

	s.shutdownLoops()
	s.sessWg.Wait()

	// Workers are stopped; flush whatever ranks are still open so every
	// record on disk is a cleanly closed stream.
	var firstErr error
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs { //cdc:allow(maporder) teardown visit order; no bytes derive from it
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.mu.Lock()
		for _, rs := range r.rankState {
			drainQueueLocked(r, rs)
			if err := r.closeRank(rs); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		r.advanceAcks()
		if err := r.maybeFinalize(); err != nil && firstErr == nil {
			firstErr = err
		}
		r.mu.Unlock()
	}
	if expired && firstErr == nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// drainQueueLocked empties a rank's attached session queue into the
// encoder (best effort — drain teardown path). Caller holds r.mu.
func drainQueueLocked(r *run, rs *rankState) {
	if rs.sess == nil {
		return
	}
	for {
		row, ok := rs.sess.q.TryDequeue()
		if !ok {
			return
		}
		if err := r.observe(rs, row); err != nil {
			rs.err = err
			return
		}
	}
}

// Kill stops the server abruptly — no flush, no manifest updates — so
// tests can stand in for a crash: everything past the last durable seal
// is lost, exactly as SIGKILL would lose it, and a new Server over the
// same root must salvage its way back.
func (s *Server) Kill() {
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.nc.Close() //cdc:allow(errsink) abrupt teardown is the point
		sess.q.Close()
	}
	s.mu.Unlock()
	s.shutdownLoops()
	s.sessWg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		r.mu.Lock()
		for _, rs := range r.rankState {
			if rs.blob != nil {
				// Close the blob without closing the encoder: buffered,
				// unflushed compressed data dies with the process image.
				rs.blob.Close() //cdc:allow(errsink) abrupt teardown is the point
				rs.blob = nil
				rs.closed = true
			}
		}
		r.mu.Unlock()
	}
}

// shutdownLoops stops the accept loop and workers, idempotently.
func (s *Server) shutdownLoops() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.ln != nil {
		s.ln.Close() //cdc:allow(errsink) listener teardown
	}
	s.acceptWg.Wait()
	s.workerWg.Wait()
}

// errSessionFatal wraps a session-killing ingest error with its wire code.
type errSessionFatal struct {
	code ingestwire.RejectCode
	err  error
}

func (e *errSessionFatal) Error() string { return e.err.Error() }

// worker is one ingest shard: it owns a subset of sessions and is the
// single consumer of each of their queues.
type worker struct {
	srv    *Server
	notify chan struct{}

	mu       sync.Mutex
	sessions []*session
}

func (w *worker) adopt(s *session) {
	w.mu.Lock()
	w.sessions = append(w.sessions, s)
	w.mu.Unlock()
	w.wake()
}

func (w *worker) wake() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

func (w *worker) loop() {
	defer w.srv.workerWg.Done()
	tick := time.NewTicker(w.srv.cfg.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-w.srv.stop:
			return
		case <-w.notify:
		case <-tick.C:
		}
		if w.srv.pauseWorkers.Load() {
			continue
		}
		w.service()
	}
}

func (w *worker) service() {
	w.mu.Lock()
	sessions := append([]*session(nil), w.sessions...)
	w.mu.Unlock()
	for _, s := range sessions {
		if w.serviceSession(s) {
			w.mu.Lock()
			for i, it := range w.sessions {
				if it == s {
					w.sessions = append(w.sessions[:i], w.sessions[i+1:]...)
					break
				}
			}
			w.mu.Unlock()
			w.srv.detach(s)
		}
	}
}

// serviceSession drains one session's queue into its rank encoder, seals
// and acks. Returns true when the session is dead and fully drained, i.e.
// ready to detach.
func (w *worker) serviceSession(s *session) (detach bool) {
	r, rs := s.run, s.rs
	type send struct {
		sess    *session
		ack     uint64
		done    bool
		doneOff uint64
	}
	var sends []send
	var fatal *errSessionFatal

	r.mu.Lock()
	for {
		row, ok := s.q.TryDequeue()
		if !ok {
			break
		}
		if rs.err != nil {
			continue // session is being killed; drop so the queue empties
		}
		if err := r.observe(rs, row); err != nil {
			rs.err = err
			fatal = &errSessionFatal{code: ingestwire.RejectMalformed, err: err}
			continue
		}
		w.srv.events.Add(row.Weight())
	}

	// Seal when due: enough events since the last cut, or the flush
	// interval elapsed. (Not every wakeup — over-frequent cuts shred the
	// record into tiny chunks.)
	if rs.err == nil && rs.rowsSinceSeal > 0 &&
		(rs.rowsSinceSeal >= w.srv.cfg.SealEvents ||
			time.Since(rs.lastSeal) >= w.srv.cfg.FlushInterval) {
		if err := r.seal(rs); err != nil {
			rs.err = err
			fatal = sealFatal(err)
		}
	}

	// Finish: the queue is empty and the client declared its total. The
	// offsets must agree exactly — both sides count the same logical
	// events — and then the rank's record closes durably.
	if fatal == nil && rs.err == nil && s.finished.Load() && !rs.closed && s.q.Len() == 0 {
		want := s.finishOffset.Load()
		switch {
		case rs.offset != want:
			rs.err = fmt.Errorf("rank %d finished at offset %d, server consumed %d", rs.rank, want, rs.offset)
			fatal = &errSessionFatal{code: ingestwire.RejectMalformed, err: rs.err}
		default:
			rs.finished = true
			if err := r.closeRank(rs); err != nil {
				rs.err = err
				fatal = sealFatal(err)
			}
		}
	}

	r.advanceAcks()
	for _, other := range r.rankState { //cdc:allow(maporder) per-session control frames; order across sessions is immaterial
		os := other.sess
		if os == nil || os.dead.Load() || !os.welcomed.Load() {
			continue
		}
		msg := send{sess: os, doneOff: other.acked}
		if other.acked > os.lastAck {
			os.lastAck = other.acked
			msg.ack = other.acked
		}
		if other.finished && other.closed && len(other.segments) == 0 && !os.doneSent {
			os.doneSent = true
			msg.done = true
		}
		if msg.ack > 0 || msg.done {
			sends = append(sends, msg)
		}
	}
	var finErr error
	if fatal == nil && rs.finished {
		finErr = r.maybeFinalize()
	}
	r.mu.Unlock()

	if finErr != nil && fatal == nil {
		fatal = sealFatal(finErr)
	}

	for _, m := range sends {
		if m.ack > 0 {
			m.sess.writeFrame(func(c *ingestwire.Conn) error { //cdc:allow(errsink) ack is advisory; a lost conn resumes from the same offset
				return c.WriteOffset(ingestwire.KindAck, m.ack)
			})
		}
		if m.done {
			m.sess.writeFrame(func(c *ingestwire.Conn) error { //cdc:allow(errsink) client retries finish if done is lost
				return c.WriteOffset(ingestwire.KindDone, m.doneOff)
			})
		}
	}
	s.maybeUnthrottle()

	if fatal != nil && !s.dead.Load() {
		s.sendReject(ingestwire.KindError, ingestwire.Reject{Code: fatal.code, Msg: fatal.err.Error()})
		s.dead.Store(true)
		s.q.Close()
		s.nc.Close() //cdc:allow(errsink) killing a misbehaving session
	}

	return s.dead.Load() && s.q.Len() == 0
}

// sealFatal classifies an encoder/seal failure for the wire.
func sealFatal(err error) *errSessionFatal {
	var qd *quotaDiskError
	if errors.As(err, &qd) {
		return &errSessionFatal{code: ingestwire.RejectQuotaDisk, err: err}
	}
	return &errSessionFatal{code: ingestwire.RejectMalformed, err: err}
}
