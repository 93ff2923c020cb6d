package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"

	"cdcreplay/internal/cdcformat"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lpe"
	"cdcreplay/internal/permdiff"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/store"
	"cdcreplay/internal/tables"
)

// chunkEvents is core's default chunk size (EncoderOptions.ChunkEvents),
// which the benchmark's recordings keep.
const chunkEvents = 4096

// chunk is one callsite's flush interval of rows, cut where the encoder
// cuts it.
type chunk struct {
	site   uint64
	events []tables.Event
}

// chunker mirrors core.Encoder's chunk boundaries: a callsite's pending
// rows flush once they hold chunkEvents matched events at a group end, and
// every stream flushes at a flush point (except one ending mid-group).
type chunker struct {
	pending map[uint64][]tables.Event
	matched map[uint64]int
	order   []uint64
	chunks  []chunk
}

func newChunker() *chunker {
	return &chunker{pending: make(map[uint64][]tables.Event), matched: make(map[uint64]int)}
}

func (c *chunker) observe(site uint64, ev tables.Event) {
	if _, ok := c.pending[site]; !ok {
		c.order = append(c.order, site)
	}
	c.pending[site] = append(c.pending[site], ev)
	if ev.Flag {
		c.matched[site]++
		if c.matched[site] >= chunkEvents && !ev.WithNext {
			c.cut(site)
		}
	}
}

func (c *chunker) cut(site uint64) {
	if evs := c.pending[site]; len(evs) > 0 {
		c.chunks = append(c.chunks, chunk{site, evs})
	}
	c.pending[site] = nil
	c.matched[site] = 0
}

func (c *chunker) flushAll(final bool) {
	for _, site := range c.order {
		evs := c.pending[site]
		if n := len(evs); n > 0 && !final && evs[n-1].Flag && evs[n-1].WithNext {
			continue
		}
		c.cut(site)
	}
}

// encodeCost is one offline re-run of the encode layer over a round's
// captured rows.
type encodeCost struct {
	encode                             meter
	reNs, peNs, lpeNs, buildNs, gzipNs int64
}

// replayRows feeds one rank's captured rows to enc and ch exactly as the
// recorder's CDC goroutine feeds its backend: failed tests fold into one
// counted row per callsite, emitted before that callsite's next matched
// row or at a flush point, and a flush due mid-group waits for the group's
// last row.
func replayRows(rows []row, flushEveryRows int, enc *core.Encoder, ch *chunker) error {
	pending := make(map[uint64]uint64)
	var order []uint64
	named := make(map[uint64]bool)
	var clock uint64
	sinceFlush, pendingFlush, midGroup := 0, false, false
	var errs []error
	emit := func(site uint64, ev tables.Event) {
		ch.observe(site, ev)
		errs = append(errs, enc.Observe(site, ev))
	}
	drainAll := func() {
		for _, site := range order {
			if n := pending[site]; n > 0 {
				pending[site] = 0
				emit(site, tables.Unmatched(n))
			}
		}
		order = order[:0]
	}
	for _, r := range rows {
		if !named[r.site] {
			named[r.site] = true
			errs = append(errs, enc.RegisterCallsite(r.site, fmt.Sprintf("site-%x", r.site)))
		}
		if !r.ev.Flag {
			if pending[r.site] == 0 {
				order = append(order, r.site)
			}
			pending[r.site] += r.ev.Count
		} else {
			if r.ev.Clock > clock {
				clock = r.ev.Clock
			}
			if n := pending[r.site]; n > 0 {
				pending[r.site] = 0
				emit(r.site, tables.Unmatched(n))
			}
			emit(r.site, r.ev)
		}
		midGroup = r.ev.Flag && r.ev.WithNext
		sinceFlush++
		if flushEveryRows > 0 && sinceFlush >= flushEveryRows {
			pendingFlush = true
		}
		if pendingFlush && !midGroup {
			drainAll()
			ch.flushAll(false)
			errs = append(errs, enc.FlushAll(clock))
			sinceFlush, pendingFlush = 0, false
		}
	}
	drainAll()
	ch.flushAll(true)
	return errors.Join(errs...)
}

// reencode re-runs the encode layer offline: every rank's captured rows go
// through core.NewEncoder into io.Discard (timed as a whole), and the same
// chunks then go through each stage on its own — tables.Eliminate (RE),
// permdiff (PE), lpe (LPE), the cdcformat.Builder the encoder uses, and
// compress/gzip — so each stage's time is measured on identical input.
func reencode(perRank [][]row, wl *workload) (encodeCost, error) {
	var c encodeCost
	var all []chunk
	var err error
	c.encode, err = measure(func() error {
		var errs []error
		for _, rows := range perRank {
			enc, err := core.NewEncoder(io.Discard, core.EncoderOptions{SeekableCuts: wl.sharded})
			if err != nil {
				return err
			}
			ch := newChunker()
			errs = append(errs, replayRows(rows, wl.flushEveryRows, enc, ch), enc.Close())
			all = append(all, ch.chunks...)
		}
		return errors.Join(errs...)
	})
	if err != nil {
		return c, err
	}

	reds := make([]tables.Reduced, len(all))
	t0 := now()
	for i, ch := range all {
		reds[i] = tables.Eliminate(ch.events)
	}
	c.reNs = now().Sub(t0).Nanoseconds()

	t0 = now()
	for _, red := range reds {
		m := red.Matched
		permdiff.Encode(permdiff.Rank(len(m), func(i, j int) bool { return tables.Less(m[i], m[j]) }))
	}
	c.peNs = now().Sub(t0).Nanoseconds()

	var col, idx []int64
	t0 = now()
	for _, red := range reds {
		col = lpe.Encode(col, red.WithNext)
		idx = idx[:0]
		for _, u := range red.Unmatched {
			idx = append(idx, u.Index)
		}
		col = lpe.Encode(col, idx)
	}
	c.lpeNs = now().Sub(t0).Nanoseconds()

	var b cdcformat.Builder
	marshaled := make([][]byte, len(all))
	t0 = now()
	for i, ch := range all {
		marshaled[i] = b.AppendMarshal(nil, b.Build(ch.site, ch.events, true))
	}
	c.buildNs = now().Sub(t0).Nanoseconds()

	t0 = now()
	zw := gzip.NewWriter(io.Discard)
	for _, m := range marshaled {
		if _, err := zw.Write(m); err != nil {
			return c, err
		}
	}
	if err := zw.Close(); err != nil {
		return c, err
	}
	c.gzipNs = now().Sub(t0).Nanoseconds()
	return c, nil
}

// prescan runs replay's first pass — store.OpenRankIter plus
// replay.ScanRecord — over every rank, one after another.
func prescan(st store.Store, o core.DecoderOptions) (meter, error) {
	return measure(func() error {
		for r := 0; r < ranks; r++ {
			it, blob, err := store.OpenRankIter(st, r, o)
			if err != nil {
				return err
			}
			_, err = replay.ScanRecord(it)
			if err := errors.Join(err, blob.Close()); err != nil {
				return fmt.Errorf("rank %d: prescan: %w", r, err)
			}
		}
		return nil
	})
}
