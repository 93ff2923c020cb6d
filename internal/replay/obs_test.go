package replay

import (
	"sync"
	"testing"

	"cdcreplay/internal/lamport"
	"cdcreplay/internal/obs"
	"cdcreplay/internal/simmpi"
)

// TestReplayObsMetrics cross-checks the replay-layer metrics against
// Stats(): the counters are the same numbers exposed a second way, so they
// must agree exactly.
func TestReplayObsMetrics(t *testing.T) {
	const ranks, msgsPerSender = 3, 6
	_, files := runRecord(t, ranks, 311, gatherTestApp(msgsPerSender))

	reg := obs.NewRegistry()
	w := simmpi.NewWorld(ranks, simmpi.Options{Seed: 312, MaxJitter: 6, Obs: reg})
	var mu sync.Mutex
	var want Stats
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplayer(lamport.WrapManual(mpi), files[rank], Options{Obs: reg})
		if err != nil {
			return err
		}
		if _, err := gatherTestApp(msgsPerSender)(rp); err != nil {
			return err
		}
		mu.Lock()
		st := rp.Stats()
		want.Released += st.Released
		want.OptimisticReleases += st.OptimisticReleases
		want.LiveReleases += st.LiveReleases
		mu.Unlock()
		return rp.Verify()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counter("replay.releases"); got != want.Released {
		t.Errorf("replay.releases = %d, Stats says %d", got, want.Released)
	}
	if want.Released == 0 {
		t.Fatal("no releases recorded; test is vacuous")
	}
	if got := s.Counter("replay.optimistic"); got != want.OptimisticReleases {
		t.Errorf("replay.optimistic = %d, Stats says %d", got, want.OptimisticReleases)
	}
	if got := s.Counter("replay.live.releases"); got != want.LiveReleases {
		t.Errorf("replay.live.releases = %d, Stats says %d", got, want.LiveReleases)
	}
	// Every released group passed through one awaitGroup success path.
	if h := s.Histogram("replay.wait.ns"); h.Count == 0 {
		t.Error("replay.wait.ns never observed")
	}
}
