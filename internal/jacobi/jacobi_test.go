package jacobi

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
)

func TestRowCodecRoundTrip(t *testing.T) {
	row := []float64{1, 0.5, -3.25, 0}
	got := make([]float64, 4)
	if err := decodeRow(got, encodeRow(row)); err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatalf("got %v want %v", got, row)
		}
	}
	if err := decodeRow(got, []byte{1}); err == nil {
		t.Fatal("accepted short row")
	}
}

func runPlain(t *testing.T, n int, seed int64, params Params) []Result {
	t.Helper()
	w := simmpi.NewWorld(n, simmpi.Options{Seed: seed, MaxJitter: 4})
	results := make([]Result, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		r, err := Run(mpi, params)
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
		mu.Lock()
		results[rank] = r
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// The solver is deterministic despite its ANY_SOURCE receives: two runs
// produce identical residuals and checksums — the hidden determinism of
// §6.3.
func TestHiddenDeterminism(t *testing.T) {
	params := Params{Rows: 8, Cols: 16, Iterations: 40}
	a := runPlain(t, 4, 1, params)
	b := runPlain(t, 4, 99, params) // different network timing
	for rank := range a {
		if a[rank].Checksum != b[rank].Checksum {
			t.Fatalf("rank %d checksum differs across runs: %v vs %v", rank, a[rank].Checksum, b[rank].Checksum)
		}
	}
	if a[0].Residual != b[0].Residual {
		t.Fatalf("residual differs: %v vs %v", a[0].Residual, b[0].Residual)
	}
}

func TestResidualDecreases(t *testing.T) {
	short := runPlain(t, 3, 2, Params{Rows: 8, Cols: 16, Iterations: 10})
	long := runPlain(t, 3, 2, Params{Rows: 8, Cols: 16, Iterations: 200})
	if long[0].Residual >= short[0].Residual {
		t.Fatalf("residual did not decrease: %v (10 iters) vs %v (200 iters)", short[0].Residual, long[0].Residual)
	}
}

func TestHeatPropagatesFromHotEdge(t *testing.T) {
	results := runPlain(t, 2, 3, Params{Rows: 6, Cols: 8, Iterations: 300})
	// The top rank holds the hot boundary; its slab must carry more heat
	// than the bottom rank's.
	if results[0].Checksum <= results[1].Checksum {
		t.Fatalf("heat did not propagate downward: top %v bottom %v", results[0].Checksum, results[1].Checksum)
	}
	if results[0].HaloReceives == 0 {
		t.Fatal("no halo receives")
	}
}

func TestSingleRankNeedsNoCommunication(t *testing.T) {
	results := runPlain(t, 1, 4, Params{Rows: 6, Cols: 8, Iterations: 20})
	if results[0].HaloReceives != 0 {
		t.Fatalf("single rank performed %d halo receives", results[0].HaloReceives)
	}
}

// TestRecordReplay verifies the solver replays exactly under the tool
// stack, and that the record is small (the Fig. 17 property is measured in
// the harness; here we just require the pipeline to work on Waitall-style
// traffic).
func TestRecordReplay(t *testing.T) {
	const n = 3
	params := Params{Rows: 6, Cols: 12, Iterations: 60}

	w := simmpi.NewWorld(n, simmpi.Options{Seed: 5, MaxJitter: 6})
	files := make([][]byte, n)
	checks := make([]float64, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 16})
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), baseline.NewCDC(enc), record.Options{})
		r, rerr := Run(rec, params)
		if cerr := rec.Close(); rerr == nil {
			rerr = cerr
		}
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		mu.Lock()
		files[rank] = buf.Bytes()
		checks[rank] = r.Checksum
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}

	w2 := simmpi.NewWorld(n, simmpi.Options{Seed: 66, MaxJitter: 6})
	err = w2.RunRanked(func(rank int, mpi simmpi.MPI) error {
		scan, err := core.OpenRecord(bytes.NewReader(files[rank]))
		if err != nil {
			return err
		}
		meta, err := replay.ScanRecord(scan)
		if err != nil {
			return err
		}
		feed, err := core.OpenRecord(bytes.NewReader(files[rank]))
		if err != nil {
			return err
		}
		rp := replay.NewStream(lamport.WrapManual(mpi), meta, replay.IterSource(feed), replay.Options{})
		r, rerr := Run(rp, params)
		if rerr != nil {
			return fmt.Errorf("rank %d: %w", rank, rerr)
		}
		if verr := rp.Verify(); verr != nil {
			return fmt.Errorf("rank %d: %w", rank, verr)
		}
		if r.Checksum != checks[rank] {
			return fmt.Errorf("rank %d checksum: replay %v != record %v", rank, r.Checksum, checks[rank])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
}
