package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cdcreplay/cdc"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/store"
	"cdcreplay/internal/store/memstore"
	"cdcreplay/internal/store/shardstore"
)

// waitTimeout bounds every blocking MPI call and every replayed release,
// so a stuck round fails well inside a run's time limit.
const waitTimeout = 20 * time.Second

// scanSpan is how long a round keeps re-scanning its record.
const scanSpan = 200 * time.Millisecond

// rankRun is one rank's pass through the application.
type rankRun struct {
	res         rankResult
	sh          *shim
	entry, exit time.Time
}

// session is one run of the application on every rank.
type session struct {
	meter
	ranks []rankRun
}

// app returns the cdc.App that runs the workload on every rank behind a
// shim, keeping each rank's outcome.
func (s *session) app(b *bench, scale float64, timed, capture bool) cdc.App {
	s.ranks = make([]rankRun, ranks)
	return func(rank int, mpi simmpi.MPI) error {
		sh := newShim(mpi, timed, capture)
		entry := now()
		res, err := b.wl.run(sh, b.appSeed, scale)
		// Distinct indices per rank; read after the world finishes.
		s.ranks[rank] = rankRun{res: res, sh: sh, entry: entry, exit: now()}
		return err
	}
}

func (s *session) sum(f func(rankRun) float64) float64 {
	var t float64
	for _, r := range s.ranks {
		t += f(r)
	}
	return t
}

func (s *session) events() float64 {
	return s.sum(func(r rankRun) float64 { return float64(r.sh.events) })
}
func (s *session) calls() float64 {
	return s.sum(func(r rankRun) float64 { return float64(r.sh.calls) })
}
func (s *session) mpiNs() float64 {
	return s.sum(func(r rankRun) float64 { return float64(r.sh.mpiNs) })
}

// appNs is the summed wall time the ranks spent inside the application.
func (s *session) appNs() float64 {
	return s.sum(func(r rankRun) float64 { return float64(r.exit.Sub(r.entry).Nanoseconds()) })
}

// work is the application work done: the workload's own unit when it has
// one, delivered messages otherwise.
func (s *session) work() float64 {
	if w := s.sum(func(r rankRun) float64 { return float64(r.res.work) }); w > 0 {
		return w
	}
	return s.events()
}

func (s *session) callSamples() []int64 {
	var all []int64
	for _, r := range s.ranks {
		all = append(all, r.sh.callNs...)
	}
	return all
}

// conserved checks that every message sent was delivered: each workload
// drains its traffic before returning.
func (s *session) conserved() error {
	sent := s.sum(func(r rankRun) float64 { return float64(r.sh.sends) })
	if got := s.events(); sent != got || sent == 0 {
		return fmt.Errorf("%v messages sent but %v delivered", sent, got)
	}
	return nil
}

var errMismatch = errors.New("replay diverged from the record")

// sameDelivery checks that rp delivered, rank by rank, exactly the
// messages rec did in the same order and reproduced its results.
func sameDelivery(rec, rp *session) error {
	for r := range rec.ranks {
		a, b := rec.ranks[r], rp.ranks[r]
		if a.sh == nil || b.sh == nil || a.sh.hash != b.sh.hash || a.sh.events != b.sh.events || a.res.digest != b.res.digest {
			return fmt.Errorf("rank %d: %w", r, errMismatch)
		}
	}
	return nil
}

func newWorld(seed int64, reg *obs.Registry) *simmpi.World {
	return simmpi.NewWorld(ranks, simmpi.Options{Seed: seed, WaitTimeout: waitTimeout, Obs: reg})
}

// newStore returns a fresh record destination for a round and the
// directory to remove afterwards (empty for in-memory stores).
func (b *bench) newStore() (store.Store, string, error) {
	if !b.wl.sharded {
		return memstore.New(), "", nil
	}
	dir := filepath.Join(b.dir, fmt.Sprintf("round-%d", b.rounds))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	return shardstore.New(dir), dir, nil
}

func (b *bench) recordOptions(st store.Store, reg *obs.Registry) []cdc.Option {
	opts := []cdc.Option{cdc.WithStore(st), cdc.WithApp(b.wl.name), cdc.WithObs(reg)}
	if b.wl.sharded {
		opts = append(opts, cdc.WithDurable(), cdc.WithFlushEveryRows(b.wl.flushEveryRows))
	}
	return opts
}

func (b *bench) decodeOptions() core.DecoderOptions {
	return core.DecoderOptions{DecodeWorkers: b.wl.decodeWorkers}
}

func (b *bench) readerOptions() []cdc.Option {
	if b.wl.decodeWorkers > 0 {
		return []cdc.Option{cdc.WithDecodeWorkers(b.wl.decodeWorkers)}
	}
	return nil
}

// scan decodes every rank's record front to back, as cdcinspect does, and
// returns the matched events it read.
func (b *bench) scan(st store.Store) (uint64, error) {
	var events uint64
	for r := 0; r < ranks; r++ {
		rr, err := cdc.OpenRankRecord(st, r, b.readerOptions()...)
		if err != nil {
			return events, fmt.Errorf("rank %d: %w", r, err)
		}
		for {
			f, err := rr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return events, errors.Join(fmt.Errorf("rank %d: %w", r, err), rr.Close())
			}
			events += f.Events
		}
		if err := rr.Close(); err != nil {
			return events, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return events, nil
}

// measured is what one round measured, for the report.
type measured struct {
	plain, wrap, rec, rp *session
	recRep               *cdc.RecordReport
	rpRep                *cdc.ReplayReport
	scan, pre            meter
	enc                  encodeCost
	snap, net            obs.Snapshot
	recStore, rpStore    storeSnapshot
	scanStore, preStore  storeSnapshot
	commitLat            []int64
	scanPasses           int
	scanPass             float64 // median seconds per scan pass
}

// round runs one plain → record → scan → replay round and returns its
// metrics, or nil when an operation failed. A traced round also re-runs
// single layers offline and times the calls into each layer.
func (b *bench) round(traced bool, scale float64, scanFor time.Duration) map[string]float64 {
	b.rounds++
	steal := watchSteal()
	st, dir, err := b.newStore()
	if !b.check("store", err) {
		return nil
	}
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	times := &storeTimes{}
	var reg, netReg *obs.Registry
	if traced {
		st = newTimedStore(st, times)
		reg, netReg = obs.NewRegistry(), obs.NewRegistry()
	}
	// Each round draws fresh application inputs and network jitter from
	// the run's seed, so a run's medians span many inputs.
	b.appSeed = b.seed<<20 + int64(b.rounds)
	netSeed := b.appSeed * 2
	m := &measured{plain: &session{}, rec: &session{}, rp: &session{}}

	app := m.plain.app(b, scale, traced, false)
	m.plain.meter, err = measure(func() error { return newWorld(netSeed, netReg).RunRanked(app) })
	if err == nil {
		err = m.plain.conserved()
	}
	if !b.check("plain", err) {
		return nil
	}

	if traced {
		// The Lamport layer alone, for its share of the tool stack.
		m.wrap = &session{}
		app := m.wrap.app(b, scale, true, false)
		m.wrap.meter, err = measure(func() error {
			return newWorld(netSeed, nil).RunRanked(func(rank int, mpi simmpi.MPI) error {
				return app(rank, lamport.Wrap(mpi))
			})
		})
		if err == nil {
			err = m.wrap.conserved()
		}
		if !b.check("lamport", err) {
			return nil
		}
	}

	app = m.rec.app(b, scale, traced, traced)
	s0 := times.snapshot()
	m.rec.meter, err = measure(func() error {
		var err error
		m.recRep, err = cdc.Record(newWorld(netSeed, nil), app, b.recordOptions(st, reg)...)
		return err
	})
	m.recStore = times.snapshot().sub(s0)
	if err == nil {
		err = m.rec.conserved()
	}
	if err == nil {
		var matched uint64
		for _, rr := range m.recRep.Ranks {
			matched += rr.Encoder.MatchedEvents
		}
		if float64(matched) != m.rec.events() {
			err = fmt.Errorf("record holds %d events, the application received %v", matched, m.rec.events())
		}
	}
	if !b.check("record", err) {
		return nil
	}
	times.mu.Lock()
	m.commitLat = times.commitLat
	times.mu.Unlock()

	s0 = times.snapshot()
	var passes []float64
	m.scan, err = measure(func() error {
		// One pass over a record takes about a millisecond, so a measured
		// round repeats the scan for scanFor and keeps the median pass: a
		// pass the machine preempted does not move it.
		deadline := now().Add(scanFor)
		for len(passes) == 0 || now().Before(deadline) {
			t0 := now()
			n, err := b.scan(st)
			if err != nil {
				return err
			}
			if float64(n) != m.rec.events() {
				return fmt.Errorf("scan read %d events, the record holds %v", n, m.rec.events())
			}
			passes = append(passes, now().Sub(t0).Seconds())
		}
		return nil
	})
	m.scanPasses, m.scanPass = len(passes), median(passes)
	m.scanStore = times.snapshot().sub(s0)
	if !b.check("scan", err) {
		return nil
	}

	if traced {
		s0 = times.snapshot()
		m.pre, err = prescan(st, b.decodeOptions())
		m.preStore = times.snapshot().sub(s0)
		if !b.check("prescan", err) {
			return nil
		}
		rows := make([][]row, ranks)
		for r, rr := range m.rec.ranks {
			rows[r] = rr.sh.rows
		}
		m.enc, err = reencode(rows, b.wl)
		if !b.check("encode", err) {
			return nil
		}
	}

	app = m.rp.app(b, scale, traced, false)
	opts := append(b.readerOptions(), cdc.WithStore(st), cdc.WithApp(b.wl.name), cdc.WithTimeout(waitTimeout), cdc.WithObs(reg))
	s0 = times.snapshot()
	m.rp.meter, err = measure(func() error {
		var err error
		m.rpRep, err = cdc.Replay(newWorld(netSeed+1, nil), app, opts...)
		return err
	})
	m.rpStore = times.snapshot().sub(s0)
	if err == nil {
		err = sameDelivery(m.rec, m.rp)
	}
	if err == nil {
		if live, notes := m.rpRep.Live(); live {
			err = fmt.Errorf("replay went live: %v", notes)
		}
	}
	if !b.check("replay", err) {
		return nil
	}

	var out map[string]float64
	if traced {
		m.snap, m.net = reg.Snapshot(), netReg.Snapshot()
		out = b.layerMetrics(m)
	} else {
		out = endToEndMetrics(m)
	}
	out[stealKey] = steal.share()
	return out
}
