package mcb

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/replay"
	"cdcreplay/internal/simmpi"
)

func TestParticleCodecRoundTrip(t *testing.T) {
	p := particle{Energy: 0.123456789, Segments: 42}
	got, err := decodeParticle(encodeParticle(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("got %+v want %+v", got, p)
	}
	if _, err := decodeParticle([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted short payload")
	}
}

// runPlain runs MCB without any tool stack and returns per-rank results.
func runPlain(t *testing.T, n int, seed int64, params Params) []Result {
	t.Helper()
	w := simmpi.NewWorld(n, simmpi.Options{Seed: seed, MaxJitter: 6})
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

func TestConservation(t *testing.T) {
	const n = 4
	params := Params{Particles: 60, TimeSteps: 2, Seed: 5}
	results := runPlain(t, n, 3, params)
	var retired, sent, received, tracks uint64
	for _, r := range results {
		retired += r.Retired
		sent += r.Sent
		received += r.Received
		tracks += r.Tracks
	}
	wantRetired := uint64(n * 60 * 2)
	if retired != wantRetired {
		t.Errorf("retired %d particles, want %d", retired, wantRetired)
	}
	if sent != received {
		t.Errorf("sent %d != received %d", sent, received)
	}
	if sent == 0 {
		t.Error("no particles crossed domain boundaries; communication pattern not exercised")
	}
	if tracks < wantRetired {
		t.Errorf("tracks %d < retired %d", tracks, retired)
	}
}

func TestGlobalAggregatesAgreeAcrossRanks(t *testing.T) {
	results := runPlain(t, 3, 11, Params{Particles: 40, TimeSteps: 1, Seed: 2})
	for i := 1; i < len(results); i++ {
		if results[i].GlobalTally != results[0].GlobalTally {
			t.Fatalf("rank %d global tally %v != rank 0's %v", i, results[i].GlobalTally, results[0].GlobalTally)
		}
		if results[i].GlobalTracks != results[0].GlobalTracks {
			t.Fatalf("rank %d global tracks %v != rank 0's %v", i, results[i].GlobalTracks, results[0].GlobalTracks)
		}
	}
	if results[0].TracksPerSec() <= 0 {
		t.Error("tracks/sec metric not positive")
	}
}

// TestRunToRunNondeterminism demonstrates the paper's §2.1 symptom: the
// same configuration produces different tallies across runs because
// receive order differs.
func TestRunToRunNondeterminism(t *testing.T) {
	params := Params{Particles: 80, TimeSteps: 2, Seed: 9, CrossProb: 0.5}
	tallies := map[string]bool{}
	for trial := 0; trial < 6; trial++ {
		results := runPlain(t, 4, int64(100+trial), params)
		tallies[fmt.Sprintf("%.17g", results[0].GlobalTally)] = true
	}
	if len(tallies) < 2 {
		t.Fatalf("global tally identical across 6 runs; MCB is not exhibiting non-determinism")
	}
}

// TestRecordReplayReproducesTally is the end-to-end headline: record an MCB
// run, replay it on a differently-seeded network, and require bit-identical
// tallies (per rank and global).
func TestRecordReplayReproducesTally(t *testing.T) {
	const n = 4
	params := Params{Particles: 50, TimeSteps: 2, Seed: 21, CrossProb: 0.4}

	w := simmpi.NewWorld(n, simmpi.Options{Seed: 777, MaxJitter: 8})
	recTallies := make([]float64, n)
	files := make([][]byte, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 32})
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
		recTallies[rank] = r.Tally
		files[rank] = buf.Bytes()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}

	w2 := simmpi.NewWorld(n, simmpi.Options{Seed: 888, MaxJitter: 8})
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
		if r.Tally != recTallies[rank] {
			return fmt.Errorf("rank %d: replay tally %.17g != recorded %.17g (diff %g)",
				rank, r.Tally, recTallies[rank], math.Abs(r.Tally-recTallies[rank]))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
}

func TestSingleRankDegenerateCase(t *testing.T) {
	// One rank: every "crossing" sends to itself.
	results := runPlain(t, 1, 1, Params{Particles: 30, TimeSteps: 1, Seed: 7})
	if results[0].Retired != 30 {
		t.Fatalf("retired %d, want 30", results[0].Retired)
	}
}

func TestParamDefaults(t *testing.T) {
	p := Params{}
	p.fill()
	if p.Particles == 0 || p.BatchSize == 0 || p.PoolSize == 0 || p.TimeSteps == 0 ||
		p.MeanSegments == 0 || p.CrossProb == 0 || p.TrackWork == 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
}

func TestNeighborsRing(t *testing.T) {
	p := Params{}
	if got := p.neighbors(0, 4); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("ring neighbors = %v", got)
	}
	if got := p.neighbors(0, 2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("2-rank ring neighbors = %v", got)
	}
	if got := p.neighbors(0, 1); len(got) != 0 {
		t.Fatalf("single-rank neighbors = %v", got)
	}
}

func TestNeighborsTorus(t *testing.T) {
	p := Params{Topology: Torus2D}
	// 16 ranks → 4x4 torus: rank 5 has neighbors 1, 9, 4, 6.
	got := p.neighbors(5, 16)
	want := map[int]bool{1: true, 9: true, 4: true, 6: true}
	if len(got) != 4 {
		t.Fatalf("torus neighbors = %v", got)
	}
	for _, nb := range got {
		if !want[nb] {
			t.Fatalf("unexpected neighbor %d in %v", nb, got)
		}
	}
	// Symmetry: u is a neighbor of v iff v is a neighbor of u, for every
	// world size (quiescence depends on it).
	for _, n := range []int{2, 3, 4, 6, 9, 12, 16, 24} {
		adj := make(map[int]map[int]bool, n)
		for r := 0; r < n; r++ {
			adj[r] = map[int]bool{}
			for _, nb := range p.neighbors(r, n) {
				if nb == r {
					t.Fatalf("n=%d rank %d is its own neighbor", n, r)
				}
				adj[r][nb] = true
			}
		}
		for r := 0; r < n; r++ {
			for nb := range adj[r] {
				if !adj[nb][r] {
					t.Fatalf("n=%d: %d→%d not symmetric", n, r, nb)
				}
			}
		}
	}
}

func TestTorusConservationAndReplay(t *testing.T) {
	const n = 9 // 3x3 torus
	params := Params{Particles: 40, TimeSteps: 2, Seed: 8, Topology: Torus2D}
	results := runPlain(t, n, 5, params)
	var retired, sent, received uint64
	for _, r := range results {
		retired += r.Retired
		sent += r.Sent
		received += r.Received
	}
	if retired != uint64(n*40*2) {
		t.Fatalf("retired %d, want %d", retired, n*40*2)
	}
	if sent != received || sent == 0 {
		t.Fatalf("sent %d received %d", sent, received)
	}
}
