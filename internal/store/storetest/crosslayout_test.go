package storetest

import (
	"path/filepath"
	"strings"
	"testing"

	"cdcreplay/internal/store"
	"cdcreplay/internal/store/dirstore"
	"cdcreplay/internal/store/shardstore"
)

// TestSweepLeavesOtherLayoutsUntouched pins the cross-layout isolation of
// the salvage sweep. One root holds an incomplete dir run and an
// incomplete sharded run, and both backends sweep it in turn, in either
// order. Each sweep must skip the other layout's run with a finding that
// names its layout and leave it byte-for-byte untouched; salvaging it with
// the wrong backend would rewrite it into a shape its own backend cannot
// read, losing every event. Each run must end up salvaged by its own
// backend with its committed events kept.
func TestSweepLeavesOtherLayoutsUntouched(t *testing.T) {
	roots := map[string]func(dir string) store.Root{
		store.LayoutDir:     func(dir string) store.Root { return dirstore.OpenRoot(dir) },
		store.LayoutSharded: func(dir string) store.Root { return shardstore.OpenRoot(dir) },
	}
	for _, order := range [][2]string{
		{store.LayoutDir, store.LayoutSharded},
		{store.LayoutSharded, store.LayoutDir},
	} {
		t.Run(order[0]+"-first", func(t *testing.T) {
			dir := t.TempDir()
			want := map[string]uint64{}
			for layout, open := range roots {
				want[layout] = makeRun(t, open(dir), layout, false)
			}
			for _, layout := range order {
				other := order[0]
				if other == layout {
					other = order[1]
				}
				otherDir := filepath.Join(dir, other)
				before := snapshot(t, otherDir)
				for _, rs := range sweep(t, roots[layout](dir)) {
					switch rs.Dir {
					case layout:
						if !rs.Salvaged {
							t.Fatalf("%s sweep did not salvage its own run: %+v", layout, rs)
						}
						if kept, _ := rs.Report.Events(); kept != want[layout] {
							t.Fatalf("%s sweep kept %d events, %d were committed", layout, kept, want[layout])
						}
					case other:
						if !rs.Skipped || !strings.Contains(rs.Finding, `"`+other+`"`) {
							t.Fatalf("%s sweep did not skip the %s run with a finding naming its layout: %+v", layout, other, rs)
						}
					default:
						t.Fatalf("%s sweep reported an unknown run: %+v", layout, rs)
					}
				}
				sameFiles(t, before, snapshot(t, otherDir))
			}
			for layout, open := range roots {
				st, err := open(dir).Open(layout)
				if err != nil {
					t.Fatal(err)
				}
				m, err := store.Open(st, "sweep", 1)
				if err != nil {
					t.Fatalf("%s run does not open after both sweeps: %v", layout, err)
				}
				if !m.Salvaged || m.Layout != layout {
					t.Fatalf("%s run: salvaged %v, layout %q", layout, m.Salvaged, m.Layout)
				}
				if got, err := pinnedEvents(st); err != nil || got != want[layout] {
					t.Fatalf("%s run decodes %d events (%v), want %d", layout, got, err, want[layout])
				}
			}
		})
	}
}

// TestDirSalvageRefusesOtherLayouts checks the single-run entry points
// apply the same rule as the sweep: dirstore salvage, in place or into a
// copy, refuses a run whose manifest names another layout and leaves it
// untouched.
func TestDirSalvageRefusesOtherLayouts(t *testing.T) {
	dir := t.TempDir()
	makeRun(t, shardstore.OpenRoot(dir), "run", false)
	run := filepath.Join(dir, "run")
	before := snapshot(t, dir)
	if _, err := dirstore.New(run).Salvage(); err == nil || !strings.Contains(err.Error(), store.LayoutSharded) {
		t.Fatalf("in-place dir salvage of a sharded run: err = %v, want a layout refusal", err)
	}
	if _, err := dirstore.SalvageTo(run, filepath.Join(dir, "copy")); err == nil || !strings.Contains(err.Error(), store.LayoutSharded) {
		t.Fatalf("copy-out dir salvage of a sharded run: err = %v, want a layout refusal", err)
	}
	sameFiles(t, before, snapshot(t, dir))
}
