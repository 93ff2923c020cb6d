package main

import (
	"math"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0), each the median
// over the run's rounds.
var endToEnd = []metricDef{
	{"record_events_per_s", "1/s"},
	{"record_cpu_ns_per_event", "ns"},
	{"record_slowdown", "ratio"},
	{"replay_events_per_s", "1/s"},
	{"replay_cpu_ns_per_event", "ns"},
	{"replay_slowdown", "ratio"},
	{"scan_events_per_s", "1/s"},
	{"bytes_per_event", "B"},
	{"record_alloc_bytes_per_event", "B"},
	{"replay_alloc_bytes_per_event", "B"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (-trace 1), each the median
// over the run's traced rounds. Per-event figures divide by the messages
// the recorded run delivered.
var perLayer = []metricDef{
	{"simmpi.plain_cpu_ns_per_event", "ns"},
	{"simmpi.messages", "count"},
	{"simmpi.call_ns.p50", "ns"},
	{"simmpi.call_ns.p99", "ns"},
	{"simmpi.call_ns.samples", "count"},
	{"lamport.cpu_ns_per_event", "ns"},
	{"record.call_ns.p50", "ns"},
	{"record.call_ns.p99", "ns"},
	{"record.call_ns.samples", "count"},
	{"record.rows_per_event", "ratio"},
	{"record.enqueue_blocked", "count"},
	{"record.queue_depth_max", "count"},
	{"record.drain_rows_per_s", "1/s"},
	{"record.produce_rows_per_s", "1/s"},
	{"record.drain_busy_frac", "ratio"},
	{"encode.cpu_ns_per_event", "ns"},
	{"encode.alloc_bytes_per_event", "B"},
	{"encode.allocs_per_event", "count"},
	{"encode.chunks", "count"},
	{"encode.re_ns_per_event", "ns"},
	{"encode.pe_ns_per_event", "ns"},
	{"encode.lpe_ns_per_event", "ns"},
	{"encode.build_ns_per_event", "ns"},
	{"encode.gzip_ns_per_event", "ns"},
	{"encode.raw_bytes_per_event", "B"},
	{"encode.re_bytes_per_event", "B"},
	{"encode.pe_bytes_per_event", "B"},
	{"encode.lpe_bytes_per_event", "B"},
	{"encode.gzip_bytes_per_event", "B"},
	{"encode.permuted_pct", "%"},
	{"store.write_ns_per_event", "ns"},
	{"store.sync_ns_per_event", "ns"},
	{"store.commit_ns_per_event", "ns"},
	{"store.commit_ns.p99", "ns"},
	{"store.commit_ns.samples", "count"},
	{"store.commits", "count"},
	{"store.read_ns_per_event", "ns"},
	{"decode.scan_s", "s"},
	{"decode.prescan_s", "s"},
	{"decode.alloc_bytes_per_event", "B"},
	{"replay.call_ns.p50", "ns"},
	{"replay.call_ns.p99", "ns"},
	{"replay.call_ns.samples", "count"},
	{"replay.wait_ns_per_event", "ns"},
	{"replay.stall_polls_per_event", "ratio"},
	{"replay.probes_per_event", "ratio"},
	{"replay.optimistic_releases", "count"},
	{"replay.match_s", "s"},
	{"budget.record.wall_s", "s"},
	{"budget.record.app_s", "s"},
	{"budget.record.simmpi_s", "s"},
	{"budget.record.lamport_s", "s"},
	{"budget.record.record_s", "s"},
	{"budget.record.encode_s", "s"},
	{"budget.record.store_s", "s"},
	{"budget.record.unattributed_s", "s"},
	{"budget.record.unattributed_frac", "ratio"},
	{"budget.replay.wall_s", "s"},
	{"budget.replay.app_s", "s"},
	{"budget.replay.simmpi_s", "s"},
	{"budget.replay.lamport_s", "s"},
	{"budget.replay.decode_s", "s"},
	{"budget.replay.store_s", "s"},
	{"budget.replay.replay_s", "s"},
	{"budget.replay.unattributed_s", "s"},
	{"budget.replay.unattributed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// wallKey and stealKey carry a round's record plus replay wall time (for
// the tracing overhead) and its steal share to the report; neither is
// printed.
const (
	wallKey  = "wall_s"
	stealKey = "steal_share"
)

// stealFloor is the steal share below which every round counts as calm.
const stealFloor = 0.01

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// endToEndMetrics derives an untraced round's end-to-end figures.
func endToEndMetrics(m *measured) map[string]float64 {
	ev := m.rec.events()
	plainPerWork := ns(m.plain.cpu) / m.plain.work()
	return map[string]float64{
		"record_events_per_s":          ev / m.rec.wall.Seconds(),
		"record_cpu_ns_per_event":      ns(m.rec.cpu) / ev,
		"record_slowdown":              ns(m.rec.cpu) / m.rec.work() / plainPerWork,
		"replay_events_per_s":          ev / m.rp.wall.Seconds(),
		"replay_cpu_ns_per_event":      ns(m.rp.cpu) / ev,
		"replay_slowdown":              ns(m.rp.cpu) / m.rp.work() / plainPerWork,
		"scan_events_per_s":            ev / m.scanPass,
		"bytes_per_event":              float64(m.recRep.TotalBytes()) / ev,
		"record_alloc_bytes_per_event": float64(m.rec.alloc) / ev,
		"replay_alloc_bytes_per_event": float64(m.rp.alloc) / ev,
		wallKey:                        (m.rec.wall + m.rp.wall).Seconds(),
	}
}

// putLatency reports a latency distribution under prefix.
func putLatency(out map[string]float64, prefix string, samples []int64) {
	l := summarize(samples)
	out[prefix+".p50"] = l.p50
	out[prefix+".p99"] = l.tail
	out[prefix+".samples"] = float64(l.n)
}

// layerMetrics derives a traced round's per-layer figures and its
// wall-time budget (README.md explains the model).
func (b *bench) layerMetrics(m *measured) map[string]float64 {
	ev := m.rec.events()
	n := float64(ranks)
	out := map[string]float64{wallKey: (m.rec.wall + m.rp.wall).Seconds()}

	out["simmpi.plain_cpu_ns_per_event"] = ns(m.plain.cpu) / m.plain.events()
	out["simmpi.messages"] = float64(m.net.Counter("net.messages"))
	putLatency(out, "simmpi.call_ns", m.plain.callSamples())
	out["lamport.cpu_ns_per_event"] = ns(m.wrap.cpu)/m.wrap.events() - ns(m.plain.cpu)/m.plain.events()

	putLatency(out, "record.call_ns", m.rec.callSamples())
	rows := float64(m.snap.Counter("record.rows"))
	var blocked, permuted, matched float64
	var drain time.Duration
	for _, rr := range m.recRep.Ranks {
		blocked += float64(rr.Queue.EnqueueBlocked)
		drain += rr.Queue.DrainDuration
		permuted += float64(rr.Encoder.PermutedMessages)
		matched += float64(rr.Encoder.MatchedEvents)
	}
	out["record.rows_per_event"] = rows / ev
	out["record.enqueue_blocked"] = blocked
	out["record.queue_depth_max"] = float64(m.snap.Gauge("record.queue.depth").Max)
	out["record.drain_rows_per_s"] = rows / drain.Seconds()
	out["record.produce_rows_per_s"] = rows / (m.rec.appNs() / 1e9)
	out["record.drain_busy_frac"] = drain.Seconds() / (n * m.rec.wall.Seconds())

	out["encode.cpu_ns_per_event"] = ns(m.enc.encode.cpu) / ev
	out["encode.alloc_bytes_per_event"] = float64(m.enc.encode.alloc) / ev
	out["encode.allocs_per_event"] = float64(m.enc.encode.mallocs) / ev
	out["encode.chunks"] = float64(m.snap.Counter("encode.chunks"))
	out["encode.re_ns_per_event"] = float64(m.enc.reNs) / ev
	out["encode.pe_ns_per_event"] = float64(m.enc.peNs) / ev
	out["encode.lpe_ns_per_event"] = float64(m.enc.lpeNs) / ev
	out["encode.build_ns_per_event"] = float64(m.enc.buildNs) / ev
	out["encode.gzip_ns_per_event"] = float64(m.enc.gzipNs) / ev
	for _, stage := range []string{"raw", "re", "pe", "lpe", "gzip"} {
		out["encode."+stage+"_bytes_per_event"] = float64(m.snap.Counter("encode.bytes."+stage)) / ev
	}
	out["encode.permuted_pct"] = 100 * permuted / matched

	out["store.write_ns_per_event"] = float64(m.recStore.writeNs) / ev
	out["store.sync_ns_per_event"] = float64(m.recStore.syncNs) / ev
	out["store.commit_ns_per_event"] = float64(m.recStore.commitNs) / ev
	commit := summarize(m.commitLat)
	out["store.commit_ns.p99"] = commit.tail
	out["store.commit_ns.samples"] = float64(commit.n)
	out["store.commits"] = float64(m.recStore.commits)
	out["store.read_ns_per_event"] = float64(m.rpStore.readNs) / ev

	passes := float64(m.scanPasses)
	out["decode.scan_s"] = m.scanPass
	out["decode.prescan_s"] = m.pre.wall.Seconds()
	out["decode.alloc_bytes_per_event"] = float64(m.scan.alloc) / passes / ev

	putLatency(out, "replay.call_ns", m.rp.callSamples())
	var probes, optimistic float64
	for _, rr := range m.rpRep.Ranks {
		probes += float64(rr.Stats.ProbesPosted)
		optimistic += float64(rr.Stats.OptimisticReleases)
	}
	out["replay.wait_ns_per_event"] = float64(m.snap.Histogram("replay.wait.ns").Sum) / ev
	out["replay.stall_polls_per_event"] = float64(m.snap.Counter("replay.stall.polls")) / ev
	out["replay.probes_per_event"] = probes / ev
	out["replay.optimistic_releases"] = optimistic
	out["replay.match_s"] = m.rp.wall.Seconds() - (m.pre.wall.Seconds()+float64(m.rpStore.readNs)/1e9)/n

	// The budget splits each side's wall time into per-rank seconds. The
	// application's own compute and the raw runtime's per-call cost come
	// from the plain run, the Lamport layer's per-call cost from the
	// Wrap-only run; the rest of the time inside MPI calls belongs to the
	// recorder (or replayer). Encode, decode and store are their measured
	// work divided across the ranks.
	perCallPlain := m.plain.mpiNs() / m.plain.calls()
	perCallLamport := m.wrap.mpiNs()/m.wrap.calls() - perCallPlain
	selfPerWork := (m.plain.appNs() - m.plain.mpiNs()) / m.plain.work()
	perRank := func(totalNs float64) float64 { return totalNs / n / 1e9 }
	// toolNs is the time inside MPI calls beyond the runtime and Lamport
	// shares: the recorder's or replayer's self time.
	toolNs := func(s *session) float64 { return s.mpiNs() - (perCallPlain+perCallLamport)*s.calls() }
	budget := func(prefix string, s *session, layers ...part) {
		rows := append([]part{
			{"app", perRank(selfPerWork * s.work())},
			{"simmpi", perRank(perCallPlain * s.calls())},
			{"lamport", perRank(perCallLamport * s.calls())},
		}, layers...)
		wall, rest := s.wall.Seconds(), s.wall.Seconds()
		for _, p := range rows {
			out[prefix+"."+p.name+"_s"] = p.s
			rest -= p.s
		}
		out[prefix+".wall_s"] = wall
		out[prefix+".unattributed_s"] = rest
		out[prefix+".unattributed_frac"] = rest / wall
	}
	budget("budget.record", m.rec,
		part{"record", perRank(toolNs(m.rec))},
		part{"encode", perRank(ns(m.enc.encode.cpu))},
		part{"store", perRank(float64(m.recStore.total()))})
	scanNs := (ns(m.scan.cpu) - float64(m.scanStore.readNs)) / passes
	decodeNs := ns(m.pre.cpu) - float64(m.preStore.readNs) + scanNs
	inlineNs := 0.0
	if b.wl.decodeWorkers == 0 {
		// A serial replay decodes its second pass inside the MPI calls.
		inlineNs = scanNs
	}
	budget("budget.replay", m.rp,
		part{"decode", perRank(decodeNs)},
		part{"store", perRank(float64(m.rpStore.total()))},
		part{"replay", perRank(toolNs(m.rp) - inlineNs)})
	return out
}

// part is one budget row: a layer's share of a side's wall time.
type part struct {
	name string
	s    float64
}

// report aggregates a run's set-ups and rounds.
type report struct {
	trace    bool
	rss      float64
	setup    series
	untraced series
	traced   series
}

// series is a set of rounds, each a metric map carrying the share of the
// machine's CPU time the hypervisor stole while it ran.
type series struct{ rounds []map[string]float64 }

func (s *series) add(m map[string]float64) { s.rounds = append(s.rounds, m) }

// calm returns the rounds the hypervisor disturbed least: all of them when
// steal stayed within stealFloor, otherwise those at or below the median
// steal share. A stolen CPU stalls whatever ran on it, so a round's wall
// time says little about the program while steal is high.
func (s *series) calm() []map[string]float64 {
	steal := make([]float64, len(s.rounds))
	for i, m := range s.rounds {
		steal[i] = m[stealKey]
	}
	limit := max(stealFloor, median(steal))
	var out []map[string]float64
	for i, m := range s.rounds {
		if steal[i] <= limit {
			out = append(out, m)
		}
	}
	return out
}

// median is key's median over the calm rounds.
func (s *series) median(key string) float64 {
	var vs []float64
	for _, m := range s.calm() {
		vs = append(vs, m[key])
	}
	return median(vs)
}

type metric struct {
	name, unit string
	value      float64
}

// defs are the metrics the run reports.
func (r *report) defs() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// Metrics lists the run's reported metrics in definition order.
func (r *report) Metrics() []metric {
	var out []metric
	for _, d := range r.defs() {
		var v float64
		switch {
		case d.name == "setup_s":
			v = r.setup.median(d.name)
		case d.name == "peak_rss_mb":
			v = r.rss
		case d.name == "trace.overhead_frac":
			v = r.traced.median(wallKey)/r.untraced.median(wallKey) - 1
		case r.trace:
			v = r.traced.median(d.name)
		default:
			v = r.untraced.median(d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN: a figure with nothing to divide by reads 0
		}
		out = append(out, metric{d.name, d.unit, v})
	}
	return out
}

// JSON is the metrics object of the result line.
func (r *report) JSON() map[string]metricJSON {
	out := make(map[string]metricJSON)
	for _, m := range r.Metrics() {
		out[m.name] = metricJSON{m.value, m.unit}
	}
	return out
}
