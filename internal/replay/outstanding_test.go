package replay

import (
	"fmt"
	"testing"

	"cdcreplay/internal/lamport"
	"cdcreplay/internal/simmpi"
)

// TestStalledPollAllocatesNothing pins the cost of a stalled spin in
// awaitGroup: a pollBelow that harvests nothing plus an ensureProbes whose
// specs all have an outstanding receive (one through a probe standing in
// for a harvested app request) allocate nothing and post nothing.
func TestStalledPollAllocatesNothing(t *testing.T) {
	w := simmpi.NewWorld(2, simmpi.Options{Seed: 1})
	rp := NewStream(lamport.WrapManual(w.Comm(0)), &RecordMeta{}, nil, Options{})
	var reqs []*simmpi.Request
	for _, sp := range []specPair{{1, 0}, {simmpi.AnySource, 1}, {simmpi.AnySource, 1}} {
		r, err := rp.Irecv(sp.src, sp.tag)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, r)
	}
	if err := lamport.Wrap(w.Comm(1)).Send(0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	for len(rp.pool) == 0 {
		if _, err := rp.pollBelow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rp.ensureProbes(reqs); err != nil {
		t.Fatal(err)
	}
	if rp.stats.ProbesPosted != 1 {
		t.Fatalf("probes posted = %d, want 1 (for the harvested (1,0) request)", rp.stats.ProbesPosted)
	}

	var pollErr error
	allocs := testing.AllocsPerRun(200, func() {
		if n, err := rp.pollBelow(); err != nil || n != 0 {
			pollErr = fmt.Errorf("stalled poll harvested %d (err %v)", n, err)
		}
		if err := rp.ensureProbes(reqs); err != nil {
			pollErr = err
		}
	})
	if pollErr != nil {
		t.Fatal(pollErr)
	}
	if allocs != 0 {
		t.Errorf("stalled pollBelow + ensureProbes allocates %v times per round, want 0", allocs)
	}
	if rp.stats.ProbesPosted != 1 {
		t.Errorf("covered specs posted more probes: %d", rp.stats.ProbesPosted)
	}
}

// harvestTrace replays rank 0 of a record by hand on one goroutine: ranks 1
// and 2 send a fixed stream of messages, and rank 0's replayer polls, then
// re-posts probes for the specs its app requests lost, as awaitGroup does
// on a stall. It returns the pool in harvest order and checks that the
// outstanding set keeps posting order through every harvest.
func harvestTrace(t *testing.T, data []byte) []string {
	t.Helper()
	w := simmpi.NewWorld(3, simmpi.Options{Seed: 7, MaxJitter: 8})
	rp, err := openReplayer(lamport.WrapManual(w.Comm(0)), data, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	senders := []*lamport.Layer{lamport.Wrap(w.Comm(1)), lamport.Wrap(w.Comm(2))}
	var app []*simmpi.Request
	for _, sp := range []specPair{{simmpi.AnySource, 0}, {1, 1}, {simmpi.AnySource, 0}, {2, 0}} {
		r, err := rp.Irecv(sp.src, sp.tag)
		if err != nil {
			t.Fatal(err)
		}
		app = append(app, r)
	}
	posted := map[*simmpi.Request]int{}
	number := func() {
		for _, r := range rp.outstanding {
			if _, ok := posted[r]; !ok {
				posted[r] = len(posted)
			}
		}
	}
	number()
	for round := 0; round < 64; round++ {
		if round < 16 {
			for i, s := range senders {
				if err := s.Send(0, (round+i)%2, []byte{byte(round)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := rp.pollBelow(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(rp.outstanding); i++ {
			if posted[rp.outstanding[i-1]] >= posted[rp.outstanding[i]] {
				t.Fatalf("round %d: outstanding set lost posting order at %d", round, i)
			}
		}
		if err := rp.ensureProbes(app); err != nil {
			t.Fatal(err)
		}
		number()
	}
	if rp.stats.ProbesPosted == 0 {
		t.Fatal("no probes posted; the trace exercises app requests only")
	}
	var trace []string
	for _, p := range rp.pool {
		trace = append(trace, fmt.Sprintf("src%d/tag%d/clock%d/round%d/req%d",
			p.st.Source, p.st.Tag, p.st.Clock, p.st.Data[0], posted[p.req]))
	}
	return trace
}

func TestPoolHarvestOrderDeterministic(t *testing.T) {
	_, files := runRecord(t, 3, 1, testsomePoolApp(4, 3))
	first := harvestTrace(t, files[0])
	second := harvestTrace(t, files[0])
	if len(first) < 16 {
		t.Fatalf("only %d messages harvested", len(first))
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("harvest order differs between two replays:\n%v\n%v", first, second)
	}
}
