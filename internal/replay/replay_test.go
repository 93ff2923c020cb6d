package replay

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"cdcreplay/internal/baseline"
	"cdcreplay/internal/core"
	"cdcreplay/internal/lamport"
	"cdcreplay/internal/record"
	"cdcreplay/internal/simmpi"
)

// observation is what an application can see of one receive.
type observation struct {
	Source  int
	Clock   uint64
	Payload string
}

// app is a deterministic program written against the MPI interface; it
// returns the rank's observed receive sequence.
type app func(mpi simmpi.MPI) ([]observation, error)

// runRecord executes the app under the recorder stack on a fresh world and
// returns per-rank observations and record files.
func runRecord(t *testing.T, n int, seed int64, a app) ([][]observation, [][]byte) {
	return runRecordOpts(t, n, seed, a, false)
}

func runRecordOpts(t *testing.T, n int, seed int64, a app, paperFormat bool) ([][]observation, [][]byte) {
	t.Helper()
	w := simmpi.NewWorld(n, simmpi.Options{Seed: seed, MaxJitter: 8})
	obs := make([][]observation, n)
	bufs := make([]*bytes.Buffer, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 16, OmitSenderColumn: paperFormat})
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), baseline.NewCDC(enc), record.Options{})
		got, aerr := a(rec)
		if cerr := rec.Close(); aerr == nil {
			aerr = cerr
		}
		mu.Lock()
		obs[rank] = got
		bufs[rank] = buf
		mu.Unlock()
		return aerr
	})
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	files := make([][]byte, n)
	for i, b := range bufs {
		files[i] = b.Bytes()
	}
	return obs, files
}

// openReplayer opens a streaming replayer over one rank's record bytes:
// a ScanRecord prescan, then NewStream over a second decode pass.
func openReplayer(next *lamport.Layer, data []byte, opts Options) (*Replayer, error) {
	scan, err := core.OpenRecord(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	meta, err := ScanRecord(scan)
	if err != nil {
		return nil, err
	}
	it, err := core.OpenRecord(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return NewStream(next, meta, IterSource(it), opts), nil
}

// scanFile prescans one rank's record bytes.
func scanFile(t *testing.T, data []byte) *RecordMeta {
	t.Helper()
	it, err := core.OpenRecord(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ScanRecord(it)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// runReplay executes the app under the replayer stack against the given
// record files, on a world with a different seed (different message
// timing), and returns per-rank observations.
func runReplay(t *testing.T, n int, seed int64, files [][]byte, a app) [][]observation {
	t.Helper()
	w := simmpi.NewWorld(n, simmpi.Options{Seed: seed, MaxJitter: 8})
	obs := make([][]observation, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplayer(lamport.WrapManual(mpi), files[rank], Options{})
		if err != nil {
			return err
		}
		got, aerr := a(rp)
		if aerr != nil {
			return fmt.Errorf("rank %d: %w", rank, aerr)
		}
		if verr := rp.Verify(); verr != nil {
			return fmt.Errorf("rank %d: %w", rank, verr)
		}
		mu.Lock()
		obs[rank] = got
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	return obs
}

// recordThenReplay asserts the replay reproduces the record run exactly,
// across several replay attempts with different network seeds.
func recordThenReplay(t *testing.T, n int, a app) {
	t.Helper()
	recordThenReplayOpts(t, n, a, false)
}

// recordThenReplayOpts additionally selects the paper-faithful record
// format (no sender column) when paperFormat is true.
func recordThenReplayOpts(t *testing.T, n int, a app, paperFormat bool) {
	t.Helper()
	want, files := runRecordOpts(t, n, 1001, a, paperFormat)
	for _, seed := range []int64{2002, 3003, 4004} {
		got := runReplay(t, n, seed, files, a)
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Fatalf("seed %d rank %d: replay diverged\n got %v\nwant %v", seed, r, got[r], want[r])
			}
		}
	}
}

// gatherWaitApp: rank 0 receives from everyone with wildcard Wait — the
// simplest non-deterministic pattern.
func gatherWaitApp(msgsPerSender int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() != 0 {
			for i := 0; i < msgsPerSender; i++ {
				payload := fmt.Sprintf("m%d.%d", mpi.Rank(), i)
				if err := mpi.Send(0, 1, []byte(payload)); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		var obs []observation
		total := (mpi.Size() - 1) * msgsPerSender
		for i := 0; i < total; i++ {
			req, err := mpi.Irecv(simmpi.AnySource, 1)
			if err != nil {
				return nil, err
			}
			st, err := mpi.Wait(req)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
		}
		return obs, nil
	}
}

func TestReplayGatherWait(t *testing.T) {
	recordThenReplay(t, 5, gatherWaitApp(12))
}

// gatherTestApp polls with Test, generating unmatched-test rows.
func gatherTestApp(msgsPerSender int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() != 0 {
			for i := 0; i < msgsPerSender; i++ {
				if err := mpi.Send(0, 1, []byte{byte(i)}); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		var obs []observation
		total := (mpi.Size() - 1) * msgsPerSender
		req, err := mpi.Irecv(simmpi.AnySource, 1)
		if err != nil {
			return nil, err
		}
		for len(obs) < total {
			ok, st, err := mpi.Test(req)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
			if len(obs) < total {
				if req, err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
					return nil, err
				}
			}
		}
		return obs, nil
	}
}

func TestReplayGatherTestPolling(t *testing.T) {
	recordThenReplay(t, 4, gatherTestApp(10))
}

// testsomePoolApp posts a pool of wildcard receives and polls with
// Testsome, re-posting as they complete — the MCB pattern (§2.1).
func testsomePoolApp(msgsPerSender, poolSize int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() != 0 {
			for i := 0; i < msgsPerSender; i++ {
				if err := mpi.Send(0, 1, []byte{byte(i)}); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		var obs []observation
		total := (mpi.Size() - 1) * msgsPerSender
		reqs := make([]*simmpi.Request, poolSize)
		for i := range reqs {
			var err error
			if reqs[i], err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
				return nil, err
			}
		}
		for len(obs) < total {
			idxs, sts, err := mpi.Testsome(reqs)
			if err != nil {
				return nil, err
			}
			for k, i := range idxs {
				obs = append(obs, observation{sts[k].Source, sts[k].Clock, string(sts[k].Data)})
				if reqs[i], err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
					return nil, err
				}
			}
		}
		return obs, nil
	}
}

func TestReplayTestsomePool(t *testing.T) {
	recordThenReplay(t, 5, testsomePoolApp(8, 3))
}

// forwardChainApp builds the dependency the incremental (LMC-based)
// release must handle: each rank forwards every received token onward, so
// releasing one receive gates the send producing the next. Batch-per-chunk
// replay would deadlock here; Axiom 1 release must not.
func forwardChainApp(tokens int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		n := mpi.Size()
		next := (mpi.Rank() + 1) % n
		var obs []observation
		if mpi.Rank() == 0 {
			for i := 0; i < tokens; i++ {
				if err := mpi.Send(next, 1, []byte{byte(i)}); err != nil {
					return nil, err
				}
				req, err := mpi.Irecv(n-1, 1)
				if err != nil {
					return nil, err
				}
				st, err := mpi.Wait(req)
				if err != nil {
					return nil, err
				}
				obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
			}
			return obs, nil
		}
		for i := 0; i < tokens; i++ {
			req, err := mpi.Irecv(mpi.Rank()-1, 1)
			if err != nil {
				return nil, err
			}
			st, err := mpi.Wait(req)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
			if err := mpi.Send(next, 1, st.Data); err != nil {
				return nil, err
			}
		}
		return obs, nil
	}
}

func TestReplayForwardChain(t *testing.T) {
	// tokens > ChunkEvents(16) forces receives whose enabling send depends
	// on an earlier receive in the same chunk.
	recordThenReplay(t, 3, forwardChainApp(40))
}

// fig3App reproduces the paper's Fig. 3: two wildcard receives, two
// messages from one sender, tested out of post order.
func fig3App() app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() == 1 {
			if err := mpi.Send(0, 1, []byte("msg1")); err != nil {
				return nil, err
			}
			return nil, mpi.Send(0, 1, []byte("msg2"))
		}
		if mpi.Rank() != 0 {
			return nil, nil
		}
		req1, err := mpi.Irecv(simmpi.AnySource, simmpi.AnyTag)
		if err != nil {
			return nil, err
		}
		req2, err := mpi.Irecv(simmpi.AnySource, simmpi.AnyTag)
		if err != nil {
			return nil, err
		}
		var obs []observation
		// Application-level out-of-order: wait for req2 before req1, from
		// a single MF callsite (the paper's Fig. 3 loop). Same-spec
		// receives must share a callsite for MF identification to apply.
		for _, req := range []*simmpi.Request{req2, req1} {
			st, err := mpi.Wait(req)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
		}
		return obs, nil
	}
}

func TestReplayFig3OutOfOrder(t *testing.T) {
	recordThenReplay(t, 2, fig3App())
}

// waitallHaloApp mimics a Jacobi halo exchange with AnySource receives
// completed by Waitall — the hidden-determinism pattern of §6.3.
func waitallHaloApp(iters int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		n := mpi.Size()
		left := (mpi.Rank() + n - 1) % n
		right := (mpi.Rank() + 1) % n
		var obs []observation
		for it := 0; it < iters; it++ {
			reqs := make([]*simmpi.Request, 2)
			var err error
			if reqs[0], err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
				return nil, err
			}
			if reqs[1], err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
				return nil, err
			}
			if err := mpi.Send(left, 1, []byte{byte(it)}); err != nil {
				return nil, err
			}
			if err := mpi.Send(right, 1, []byte{byte(it)}); err != nil {
				return nil, err
			}
			sts, err := mpi.Waitall(reqs)
			if err != nil {
				return nil, err
			}
			for _, st := range sts {
				obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
			}
		}
		return obs, nil
	}
}

func TestReplayWaitallHalo(t *testing.T) {
	recordThenReplay(t, 4, waitallHaloApp(25))
}

// multiCallsiteApp uses two distinct MF callsites with disjoint tags; MF
// identification must keep their streams separate.
func multiCallsiteApp(msgs int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				if err := mpi.Send(0, 1, []byte{1, byte(i)}); err != nil {
					return nil, err
				}
				if err := mpi.Send(0, 2, []byte{2, byte(i)}); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		var obs []observation
		total := (mpi.Size() - 1) * msgs
		for i := 0; i < total; i++ {
			// Callsite A: tag-1 traffic.
			reqA, err := mpi.Irecv(simmpi.AnySource, 1)
			if err != nil {
				return nil, err
			}
			stA, err := mpi.Wait(reqA)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{stA.Source, stA.Clock, string(stA.Data)})
			// Callsite B: tag-2 traffic (different source line → different
			// MF id).
			reqB, err := mpi.Irecv(simmpi.AnySource, 2)
			if err != nil {
				return nil, err
			}
			stB, err := mpi.Wait(reqB)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{stB.Source, stB.Clock, string(stB.Data)})
		}
		return obs, nil
	}
}

func TestReplayMultiCallsite(t *testing.T) {
	recordThenReplay(t, 3, multiCallsiteApp(10))
}

// waitanyApp exercises Waitany replay.
func waitanyApp(msgs int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				if err := mpi.Send(0, 1, []byte{byte(i)}); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		senders := mpi.Size() - 1
		reqs := make([]*simmpi.Request, senders)
		for s := 1; s <= senders; s++ {
			var err error
			if reqs[s-1], err = mpi.Irecv(s, 1); err != nil {
				return nil, err
			}
		}
		var obs []observation
		remaining := make([]int, senders)
		for i := range remaining {
			remaining[i] = msgs - 1
		}
		for done := 0; done < senders*msgs; done++ {
			i, st, err := mpi.Waitany(reqs)
			if err != nil {
				return nil, err
			}
			obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
			src := st.Source
			if remaining[src-1] > 0 {
				remaining[src-1]--
				if reqs[i], err = mpi.Irecv(src, 1); err != nil {
					return nil, err
				}
			}
		}
		return obs, nil
	}
}

func TestReplayWaitany(t *testing.T) {
	recordThenReplay(t, 4, waitanyApp(6))
}

// tallyApp demonstrates the paper's §2.1 motivation: a floating-point
// reduction whose result depends on receive order. Replay must reproduce
// the tally bit for bit.
func tallyApp(msgs int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		if mpi.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				v := float64(mpi.Rank()) * 1e-7 * float64(i+1)
				if err := mpi.Send(0, 1, []byte(fmt.Sprintf("%.17g", v))); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		tally := 1.0
		total := (mpi.Size() - 1) * msgs
		for i := 0; i < total; i++ {
			req, err := mpi.Irecv(simmpi.AnySource, 1)
			if err != nil {
				return nil, err
			}
			st, err := mpi.Wait(req)
			if err != nil {
				return nil, err
			}
			var v float64
			if _, err := fmt.Sscanf(string(st.Data), "%g", &v); err != nil {
				return nil, err
			}
			tally += v
			tally *= 1.0000001 // amplify order sensitivity
		}
		return []observation{{0, 0, fmt.Sprintf("%.17g", tally)}}, nil
	}
}

func TestReplayReproducesFloatingPointTally(t *testing.T) {
	recordThenReplay(t, 6, tallyApp(15))
}

func TestReplayErrorOnMissingCallsite(t *testing.T) {
	// Record with one app, replay with a different one: the replayer must
	// detect the unknown callsite rather than misreplay.
	_, files := runRecord(t, 2, 7, gatherWaitApp(3))
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 8})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplayer(lamport.WrapManual(mpi), files[rank], Options{})
		if err != nil {
			return err
		}
		if rank != 0 {
			for i := 0; i < 3; i++ {
				if err := rp.Send(0, 1, []byte("x")); err != nil {
					return err
				}
			}
			return nil
		}
		req, err := rp.Irecv(simmpi.AnySource, 1)
		if err != nil {
			return err
		}
		_, werr := rp.Wait(req) // different file:line than the record run
		if !errors.Is(werr, ErrDiverged) {
			return fmt.Errorf("Wait err = %v, want ErrDiverged", werr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyReportsUnreplayedEvents(t *testing.T) {
	_, files := runRecord(t, 2, 9, gatherWaitApp(5))
	w := simmpi.NewWorld(1, simmpi.Options{})
	rp, err := openReplayer(lamport.WrapManual(w.Comm(0)), files[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Verify(); err == nil {
		t.Fatal("Verify passed with a fully unreplayed record")
	}
}

// testallApp exercises MPI_Testall record and replay: both halo messages
// must arrive before the call succeeds, and failed tests are counted.
func testallApp(rounds int) app {
	return func(mpi simmpi.MPI) ([]observation, error) {
		n := mpi.Size()
		left := (mpi.Rank() + n - 1) % n
		right := (mpi.Rank() + 1) % n
		var obs []observation
		for round := 0; round < rounds; round++ {
			reqs := make([]*simmpi.Request, 2)
			var err error
			if reqs[0], err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
				return nil, err
			}
			if reqs[1], err = mpi.Irecv(simmpi.AnySource, 1); err != nil {
				return nil, err
			}
			if err := mpi.Send(left, 1, []byte{byte(round)}); err != nil {
				return nil, err
			}
			if err := mpi.Send(right, 1, []byte{byte(round)}); err != nil {
				return nil, err
			}
			for {
				ok, sts, err := mpi.Testall(reqs)
				if err != nil {
					return nil, err
				}
				if ok {
					for _, st := range sts {
						obs = append(obs, observation{st.Source, st.Clock, string(st.Data)})
					}
					break
				}
			}
		}
		return obs, nil
	}
}

func TestReplayTestall(t *testing.T) {
	recordThenReplay(t, 4, testallApp(20))
}

// TestReplayReceiveMaxPolicy proves the alternative clock definition
// (paper §4.3 future work) is replayable end to end: record and replay
// with the ReceiveMax policy must agree exactly.
func TestReplayReceiveMaxPolicy(t *testing.T) {
	a := testsomePoolApp(8, 3)
	const n = 4
	w := simmpi.NewWorld(n, simmpi.Options{Seed: 61, MaxJitter: 8})
	want := make([][]observation, n)
	files := make([][]byte, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 16})
		if err != nil {
			return err
		}
		rec := record.New(lamport.WrapPolicy(mpi, lamport.ReceiveMax), baseline.NewCDC(enc), record.Options{})
		got, aerr := a(rec)
		if cerr := rec.Close(); aerr == nil {
			aerr = cerr
		}
		mu.Lock()
		want[rank] = got
		files[rank] = buf.Bytes()
		mu.Unlock()
		return aerr
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	w2 := simmpi.NewWorld(n, simmpi.Options{Seed: 62, MaxJitter: 8})
	err = w2.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplayer(lamport.WrapManualPolicy(mpi, lamport.ReceiveMax), files[rank], Options{})
		if err != nil {
			return err
		}
		got, aerr := a(rp)
		if aerr != nil {
			return fmt.Errorf("rank %d: %w", rank, aerr)
		}
		if verr := rp.Verify(); verr != nil {
			return fmt.Errorf("rank %d: %w", rank, verr)
		}
		mu.Lock()
		defer mu.Unlock()
		if !reflect.DeepEqual(got, want[rank]) {
			return fmt.Errorf("rank %d diverged:\n got %v\nwant %v", rank, got, want[rank])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// pacedSends delays every send, so a receiver's matches spread over wall
// time instead of finishing inside one flush interval.
type pacedSends struct{ simmpi.MPI }

func (p pacedSends) Send(dst, tag int, data []byte) error {
	time.Sleep(2 * time.Millisecond)
	return p.MPI.Send(dst, tag, data)
}

// TestReplayWithPeriodicFlush records under an aggressive time-based flush
// (many small chunks, gzip sync blocks between them) and verifies the
// replay is unaffected by the chunking pattern. Sends are paced so the
// receiving rank outlives several flush intervals on a fast machine too.
func TestReplayWithPeriodicFlush(t *testing.T) {
	pool := testsomePoolApp(10, 3)
	a := func(mpi simmpi.MPI) ([]observation, error) { return pool(pacedSends{mpi}) }
	const n = 4
	w := simmpi.NewWorld(n, simmpi.Options{Seed: 71, MaxJitter: 8})
	want := make([][]observation, n)
	files := make([][]byte, n)
	var mu sync.Mutex
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		buf := &bytes.Buffer{}
		enc, err := core.NewEncoder(buf, core.EncoderOptions{ChunkEvents: 1024})
		if err != nil {
			return err
		}
		rec := record.New(lamport.Wrap(mpi), baseline.NewCDC(enc), record.Options{
			FlushInterval: time.Millisecond,
		})
		got, aerr := a(rec)
		if cerr := rec.Close(); aerr == nil {
			aerr = cerr
		}
		mu.Lock()
		want[rank] = got
		files[rank] = buf.Bytes()
		mu.Unlock()
		return aerr
	})
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	// The time-based flush must have produced multiple chunks even though
	// the event count never hit ChunkEvents.
	chunks := 0
	for _, cm := range scanFile(t, files[0]).Callsites {
		chunks += cm.Chunks
	}
	if chunks < 2 {
		t.Skipf("flush interval produced only %d chunk(s) on this machine; nothing to verify", chunks)
	}
	got := runReplay(t, n, 72, files, a)
	for r := range want {
		if !reflect.DeepEqual(got[r], want[r]) {
			t.Fatalf("rank %d diverged under periodic flushing", r)
		}
	}
}

// TestReplayRecordExhausted: an MF call past the recorded horizon must
// fail with ErrExhausted rather than inventing events.
func TestReplayRecordExhausted(t *testing.T) {
	_, files := runRecord(t, 2, 81, gatherWaitApp(3))
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 82, MaxJitter: 4})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplayer(lamport.WrapManual(mpi), files[rank], Options{})
		if err != nil {
			return err
		}
		// Replay a LONGER app against the shorter record: the same MF
		// callsite runs out of recorded events on the extra receive.
		_, aerr := gatherWaitApp(4)(rp)
		if rank != 0 {
			return aerr
		}
		if !errors.Is(aerr, ErrExhausted) {
			return fmt.Errorf("overlong replay err = %v, want ErrExhausted", aerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReplayStatsPopulate sanity-checks the observability counters.
func TestReplayStatsPopulate(t *testing.T) {
	_, files := runRecord(t, 3, 83, gatherTestApp(6))
	w := simmpi.NewWorld(3, simmpi.Options{Seed: 84, MaxJitter: 6})
	err := w.RunRanked(func(rank int, mpi simmpi.MPI) error {
		rp, err := openReplayer(lamport.WrapManual(mpi), files[rank], Options{})
		if err != nil {
			return err
		}
		if _, err := gatherTestApp(6)(rp); err != nil {
			return err
		}
		if rank == 0 {
			st := rp.Stats()
			if st.Released != 12 {
				return fmt.Errorf("released = %d, want 12", st.Released)
			}
			if st.ChunksVerified == 0 {
				return fmt.Errorf("no chunks verified: %+v", st)
			}
		}
		return rp.Verify()
	})
	if err != nil {
		t.Fatal(err)
	}
}
