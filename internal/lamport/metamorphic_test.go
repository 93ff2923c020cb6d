package lamport_test

import (
	"bytes"
	"reflect"
	"testing"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
	"cdcreplay/internal/tables"
	"cdcreplay/internal/workload"
)

// clockTee forwards rows to the CDC encoder while retaining the
// matched-event clock stream in observed order.
type clockTee struct {
	cdc    *baseline.CDCMethod
	clocks []uint64
}

func (c *clockTee) Name() string { return "clock-tee" }
func (c *clockTee) Observe(cs uint64, ev tables.Event) error {
	if ev.Flag {
		c.clocks = append(c.clocks, ev.Clock)
	}
	return c.cdc.Observe(cs, ev)
}
func (c *clockTee) RegisterCallsite(id uint64, name string) error {
	return c.cdc.RegisterCallsite(id, name)
}
func (c *clockTee) FlushAll(clock uint64) error { return c.cdc.FlushAll(clock) }
func (c *clockTee) Close() error                { return c.cdc.Close() }
func (c *clockTee) BytesWritten() int64         { return c.cdc.BytesWritten() }

// TestMetamorphicDeliveryPermutation is the metamorphic replay theorem at
// the clock layer (paper Theorem 2): the replayed Lamport clock stream is a
// function of the *observed* receive order alone. Permuting the network's
// delivery order underneath the replayer — any FIFO-respecting permutation,
// here induced by re-seeding the delivery jitter — must leave every rank's
// released clock stream, final clock, and verification verdict identical.
func TestMetamorphicDeliveryPermutation(t *testing.T) {
	const ranks = 3
	params := workload.ExchangeParams{Rounds: 2, MessagesPerRound: 3, Payload: 8, Seed: 7}
	app := func(mpi simmpi.MPI) error {
		_, err := workload.Exchange(mpi, params)
		return err
	}

	// Record once, on a jittery network, capturing each rank's observed
	// clock stream and encoded record.
	bufs := make([]*bytes.Buffer, ranks)
	recClocks := make([][]uint64, ranks)
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: 1, MaxJitter: 5})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		bufs[rank] = &bytes.Buffer{}
		enc, err := core.NewEncoder(bufs[rank], core.EncoderOptions{ChunkEvents: 64})
		if err != nil {
			return err
		}
		tee := &clockTee{cdc: baseline.NewCDC(enc)}
		rec := record.New(lamport.Wrap(mpi), tee, record.Options{})
		aerr := app(rec)
		cerr := rec.Close()
		recClocks[rank] = tee.clocks
		if aerr != nil {
			return aerr
		}
		return cerr
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	// Replay several times, each on a differently-permuted delivery order.
	var first [][]uint64
	var firstFinal []uint64
	for trial := 0; trial < 4; trial++ {
		repClocks := make([][]uint64, ranks)
		finals := make([]uint64, ranks)
		w := simmpi.NewWorld(ranks, simmpi.Options{Seed: int64(100 + 37*trial), MaxJitter: 7})
		err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
			scan, err := core.OpenRecord(bytes.NewReader(bufs[rank].Bytes()))
			if err != nil {
				return err
			}
			meta, err := replay.ScanRecord(scan)
			if err != nil {
				return err
			}
			feed, err := core.OpenRecord(bytes.NewReader(bufs[rank].Bytes()))
			if err != nil {
				return err
			}
			ll := lamport.WrapManual(mpi)
			rp := replay.NewStream(ll, meta, replay.IterSource(feed), replay.Options{
				OnRelease: func(st simmpi.Status) {
					repClocks[rank] = append(repClocks[rank], st.Clock)
				},
			})
			if aerr := app(rp); aerr != nil {
				return aerr
			}
			finals[rank] = ll.Clock()
			return rp.Verify()
		})
		if err != nil {
			t.Fatalf("replay trial %d: %v", trial, err)
		}
		// Replayed clocks must equal the recorded observed stream…
		if !reflect.DeepEqual(repClocks, recClocks) {
			t.Fatalf("trial %d: replayed clock streams diverge from recorded:\n%v\n%v",
				trial, repClocks, recClocks)
		}
		// …and be identical across delivery permutations.
		if trial == 0 {
			first, firstFinal = repClocks, finals
			continue
		}
		if !reflect.DeepEqual(repClocks, first) {
			t.Fatalf("trial %d: clock stream changed with delivery order", trial)
		}
		if !reflect.DeepEqual(finals, firstFinal) {
			t.Fatalf("trial %d: final clocks changed with delivery order: %v vs %v",
				trial, finals, firstFinal)
		}
	}
}

// TestObservationOrderSensitivity documents the contrapositive that makes
// order replay necessary at all: the Classic clock rule is NOT oblivious to
// the observation order, so two observation orders of the same delivery set
// can yield different clocks — which is exactly why the replayer re-applies
// ticks in recorded order rather than arrival order.
func TestObservationOrderSensitivity(t *testing.T) {
	a := lamport.WrapManual(nil)
	a.TickReceive(5)
	a.TickReceive(2)
	b := lamport.WrapManual(nil)
	b.TickReceive(2)
	b.TickReceive(5)
	if a.Clock() == b.Clock() {
		t.Fatalf("Classic rule unexpectedly order-oblivious (both %d); the order-replay machinery would be unnecessary", a.Clock())
	}
}
