package main

import (
	"testing"

	"cdcreplay/internal/store"
	"cdcreplay/internal/store/memstore"
	"cdcreplay/internal/store/shardstore"
	"cdcreplay/internal/store/storetest"
)

// The timing decorator must honour the whole store contract on the
// backends the benchmark wraps.
func TestTimedStoreConformanceMem(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store {
		return newTimedStore(memstore.New(), &storeTimes{})
	})
}

func TestTimedStoreConformanceSharded(t *testing.T) {
	storetest.Run(t, func(t *testing.T) store.Store {
		return newTimedStore(shardstore.New(t.TempDir()), &storeTimes{})
	})
}
