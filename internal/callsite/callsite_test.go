package callsite

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func fromHelperA() (uint64, string) { return ID(1) }

func fromHelperB() (uint64, string) { return ID(1) }

func TestDistinctCallsitesGetDistinctIDs(t *testing.T) {
	idA, nameA := fromHelperA()
	idB, nameB := fromHelperB()
	if idA == idB {
		t.Fatalf("distinct callsites share id %#x (%s vs %s)", idA, nameA, nameB)
	}
	if !strings.Contains(nameA, "callsite_test.go") {
		t.Fatalf("name %q does not identify the source file", nameA)
	}
}

func TestSameCallsiteIsStable(t *testing.T) {
	var ids []uint64
	var names []string
	for i := 0; i < 3; i++ {
		id, name := fromHelperA()
		ids = append(ids, id)
		names = append(names, name)
	}
	for i := 1; i < 3; i++ {
		if ids[i] != ids[0] || names[i] != names[0] {
			t.Fatalf("callsite identity unstable: %v %v", ids, names)
		}
	}
}

func TestLoopCallsiteIsOne(t *testing.T) {
	// All iterations of a loop share a source line, hence one MF id —
	// the paper's Fig. 3 pattern relies on this.
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		id, _ := ID(1)
		seen[id] = true
	}
	if len(seen) != 1 {
		t.Fatalf("loop produced %d distinct ids", len(seen))
	}
}

func TestIDNeverZero(t *testing.T) {
	id, _ := fromHelperA()
	if id == 0 {
		t.Fatal("callsite id 0 is reserved for disabled MF identification")
	}
}

func TestBadSkipIsHarmless(t *testing.T) {
	id, name := ID(1000)
	if id != 0 || name != "unknown" {
		t.Fatalf("got %#x %q for absurd skip", id, name)
	}
}

type identity struct {
	id   uint64
	name string
}

func pairOf(id uint64, name string) identity { return identity{id, name} }

// callerID derives the identity of the line skip frames above its caller
// from runtime.Caller, as ID did before it cached by pc.
func callerID(skip int) (uint64, string) {
	_, file, line, ok := runtime.Caller(skip + 1)
	if !ok {
		return 0, "unknown"
	}
	ent := resolve(file, line)
	return ent.id, ent.name
}

// inlinedHelper and inlinedRef are small enough for the compiler to inline
// into their caller, so the frame they name exists only in the inline tree.
func inlinedHelper() (uint64, string) { return ID(2) }

func inlinedRef() (uint64, string) { return callerID(1) }

func TestIDMatchesRuntimeCaller(t *testing.T) {
	check := func(what string, got, want identity) {
		t.Helper()
		if got != want {
			t.Errorf("%s: ID gives %#x %q, runtime.Caller gives %#x %q", what, got.id, got.name, want.id, want.name)
		}
		if !strings.Contains(got.name, "callsite_test.go:") {
			t.Errorf("%s: name %q does not name this file", what, got.name)
		}
	}
	// Each case runs twice: once through the cache miss, once through a hit.
	for i := 0; i < 2; i++ {
		got, want := pairOf(ID(1)), pairOf(callerID(0))
		check("direct call", got, want)
	}
	for i := 0; i < 2; i++ {
		got, want := pairOf(inlinedHelper()), pairOf(inlinedRef())
		check("inlined helper", got, want)
	}
	var got, want []identity
	for i := 0; i < 4; i++ {
		g, w := pairOf(ID(1)), pairOf(callerID(0))
		got, want = append(got, g), append(want, w)
	}
	for i := range got {
		check("loop call", got[i], want[i])
		if got[i] != got[0] {
			t.Errorf("loop call: iteration %d gives %q, iteration 0 gives %q", i, got[i].name, got[0].name)
		}
	}
}

func TestIDCacheHitAllocatesNothing(t *testing.T) {
	fromHelperA()
	if n := testing.AllocsPerRun(100, func() { fromHelperA() }); n != 0 {
		t.Fatalf("cache hit allocates %v times per call, want 0", n)
	}
}

func TestIDConcurrentUse(t *testing.T) {
	// Rank goroutines share the cache; misses on distinct and shared pcs
	// race to publish, and every caller must still see its own identity.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var got, want identity
				if g%2 == 0 {
					got, want = pairOf(ID(1)), pairOf(callerID(0))
				} else {
					got, want = pairOf(inlinedHelper()), pairOf(inlinedRef())
				}
				if got != want {
					t.Errorf("goroutine %d: ID gives %q, runtime.Caller gives %q", g, got.name, want.name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
