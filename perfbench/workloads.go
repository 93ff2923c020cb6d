package main

import (
	"math"

	"cdcreplay/internal/jacobi"
	"cdcreplay/internal/mcb"
	"cdcreplay/internal/simmpi"
	synthetic "cdcreplay/internal/workload"
)

// ranks is the world size of every workload: more ranks than the cores
// of a small machine, so the cores stay saturated and CPU time per unit
// of work tracks wall time.
const ranks = 4

// rankResult is one rank's application outcome.
type rankResult struct {
	// work is the application work done, in the workload's unit; zero
	// means the unit is delivered messages.
	work uint64
	// digest folds the rank's order-sensitive result bits; a replay must
	// reproduce it exactly.
	digest uint64
}

// workload is one named benchmark input: the application each rank runs
// and the storage and decode settings of its record and replay.
type workload struct {
	name string
	// run executes one rank. scale multiplies the problem size.
	run func(mpi simmpi.MPI, seed int64, scale float64) (rankResult, error)
	// sharded records to the on-disk sharded layout with durable
	// flushes every flushEveryRows rows, and decodes with decodeWorkers;
	// otherwise the record lives in memory and decodes serially.
	sharded        bool
	flushEveryRows int
	decodeWorkers  int
}

// workloads are the benchmark's inputs; README.md says why each exists.
var workloads = []*workload{
	{name: "mcb", run: runMCB},
	{name: "exchange", run: runExchange},
	{name: "halo-durable", run: runHalo, sharded: true, flushEveryRows: 256, decodeWorkers: 2},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

func digest(vs ...uint64) uint64 {
	h := uint64(fnvOffset)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return h
}

func runMCB(mpi simmpi.MPI, seed int64, scale float64) (rankResult, error) {
	res, err := mcb.Run(mpi, mcb.Params{Particles: scaled(600, scale), TimeSteps: 2, CrossProb: 0.1, TrackWork: 2000, Seed: seed})
	return rankResult{
		work:   res.Tracks,
		digest: digest(math.Float64bits(res.Tally), math.Float64bits(res.GlobalTally), res.Tracks, res.Retired),
	}, err
}

func runExchange(mpi simmpi.MPI, seed int64, scale float64) (rankResult, error) {
	res, err := synthetic.Exchange(mpi, synthetic.ExchangeParams{
		Rounds: scaled(200, scale), MessagesPerRound: 64, Payload: 16, Seed: seed,
	})
	return rankResult{digest: digest(res.Sent, res.Received)}, err
}

func runHalo(mpi simmpi.MPI, seed int64, scale float64) (rankResult, error) {
	res, err := jacobi.Run(mpi, jacobi.Params{Rows: 8, Cols: 16, Iterations: scaled(2000, scale)})
	return rankResult{digest: digest(math.Float64bits(res.Checksum), math.Float64bits(res.Residual), res.HaloReceives)}, err
}
