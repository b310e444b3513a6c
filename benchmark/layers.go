package main

import (
	"math"

	"repro/internal/exec"
)

// perLayer lists the metrics of single layers, named <layer>.<metric>
// after this repository's modules. They come from the traced pass only:
// spans recorded around the calls into each layer, the per-site metrics
// registries (on in that pass alone), the public counters of the managers,
// and short probes of the lower layers. A metric that does not apply to a
// workload (security.* on an in-process cluster) reads 0 there.
var perLayer = []metricSpec{
	{Name: "exec.frames", Unit: "count", Better: "lower"},
	{Name: "exec.body_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "exec.busy_share", Unit: "share", Better: "higher"},
	{Name: "exec.wait_share", Unit: "share", Better: "lower"},
	{Name: "exec.errors", Unit: "count", Better: "lower"},

	{Name: "memory.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "memory.send_us_p99", Unit: "us", Better: "lower"},
	{Name: "memory.newframe_us_p50", Unit: "us", Better: "lower"},
	{Name: "memory.params_per_frame", Unit: "count", Better: "lower"},
	{Name: "memory.shard_contention", Unit: "count", Better: "lower"},
	{Name: "memory.read_us_p50", Unit: "us", Better: "lower"},
	{Name: "memory.read_us_p99", Unit: "us", Better: "lower"},
	{Name: "memory.write_us_p50", Unit: "us", Better: "lower"},
	{Name: "memory.write_us_p99", Unit: "us", Better: "lower"},
	{Name: "memory.replica_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "memory.remote_reads", Unit: "count", Better: "lower"},
	{Name: "memory.remote_writes", Unit: "count", Better: "lower"},
	{Name: "memory.invalidates", Unit: "count", Better: "lower"},
	{Name: "memory.home_migrations", Unit: "count", Better: "lower"},
	{Name: "memory.fetch_retries", Unit: "count", Better: "lower"},

	{Name: "sched.enq_deq_ns_d1", Unit: "ns", Better: "lower"},
	{Name: "sched.enq_deq_ns_d10k", Unit: "ns", Better: "lower"},
	{Name: "sched.hop_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.hop_us_p99", Unit: "us", Better: "lower"},
	{Name: "sched.help_asked", Unit: "count", Better: "lower"},
	{Name: "sched.help_granted", Unit: "count", Better: "higher"},
	{Name: "sched.help_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "sched.surrendered_per_kframe", Unit: "count", Better: "lower"},
	{Name: "sched.site_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "sched.efficiency", Unit: "share", Better: "higher"},

	{Name: "msgbus.msgs_per_frame", Unit: "count", Better: "lower"},
	{Name: "msgbus.bytes_per_frame", Unit: "B", Better: "lower"},
	{Name: "msgbus.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "msgbus.request_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "msgbus.dropped", Unit: "count", Better: "lower"},

	{Name: "netmgr.datagrams_per_msg", Unit: "count", Better: "lower"},
	{Name: "netmgr.send_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "netmgr.send_errors", Unit: "count", Better: "lower"},

	{Name: "wire.encode_ns_64b", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_64b", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_64k", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_64k", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},

	{Name: "security.seal_ns_64b", Unit: "ns", Better: "lower"},
	{Name: "security.open_ns_64b", Unit: "ns", Better: "lower"},
	{Name: "security.seal_ns_64k", Unit: "ns", Better: "lower"},
	{Name: "security.open_ns_64k", Unit: "ns", Better: "lower"},

	{Name: "transport.tcp_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.inproc_rtt_us_p50", Unit: "us", Better: "lower"},

	{Name: "program.submit_us_p50", Unit: "us", Better: "lower"},
	{Name: "program.submit_us_p99", Unit: "us", Better: "lower"},
	{Name: "program.wait_us_p50", Unit: "us", Better: "lower"},

	{Name: "cluster.signon_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "checkpoint.taken", Unit: "count", Better: "lower"},
	{Name: "checkpoint.stored", Unit: "count", Better: "lower"},
	{Name: "checkpoint.ack_ratio", Unit: "share", Better: "higher"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.alloc_kb_per_op", Unit: "KiB", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower"},
}

// layerSnapshot is the cluster's counters at one instant.
type layerSnapshot struct {
	// counts sums every site's metrics registry by instrument name (none
	// with the registries off) and, under memstats.*, the attraction
	// memory's own counters, which need no registry.
	counts   map[string]int64
	executed []uint64 // microthreads run, per site
}

func snapshotLayers(c *cluster) layerSnapshot {
	s := layerSnapshot{counts: c.registryTotals()}
	for _, site := range c.sites {
		st := site.Daemon.Mem.Stats()
		for name, n := range map[string]uint64{
			"memstats.remote_reads":     st.RemoteReads,
			"memstats.remote_writes":    st.RemoteWrites,
			"memstats.params_applied":   st.ParamsApplied,
			"memstats.frames_fired":     st.FramesFired,
			"memstats.invalidates":      st.Invalidates,
			"memstats.shard_contention": st.ShardContention,
			"memstats.replica_hits":     st.ReplicaHits,
			"memstats.home_migrations":  st.HomeMigrations,
		} {
			s.counts[name] += int64(n)
		}
		s.executed = append(s.executed, site.Daemon.Exec.Executed())
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics adds to v the per-layer values of one traced window, derived
// from the counter snapshots around it and the spans recorded in it.
func layerMetrics(v map[string]float64, cfg runConfig, m measured, before, after layerSnapshot, st spanStats) {
	sites := float64(cfg.w.spec.sites())
	reg := func(name string) float64 { return float64(after.counts[name] - before.counts[name]) }
	// A p99 is reported at the highest percentile its sample supports
	// (at least ten samples beyond it), at most the 99th.
	p := func(name string, q float64) float64 {
		asc := sorted(st.durUS[name])
		if rule, ok := tailQuantile(len(asc)); ok && rule < q {
			q = rule
		}
		return quantile(asc, q)
	}

	var frames, maxNorm, sumNorm, speedSum float64
	for i, n := range after.executed {
		d := float64(n - before.executed[i])
		frames += d
		norm := d / cfg.w.spec.speeds[i]
		sumNorm += norm
		if norm > maxNorm {
			maxNorm = norm
		}
		speedSum += cfg.w.spec.speeds[i]
	}
	workerNS := sites * exec.DefaultWindow * float64(m.elapsed)

	v["exec.frames"] = frames
	v["exec.body_self_us_p50"] = median(st.bodySelf)
	v["exec.busy_share"] = ratio(reg("exec.run_time.sum_ns"), workerNS)
	v["exec.wait_share"] = ratio(reg("exec.wait_time.sum_ns"), workerNS)
	v["exec.errors"] = reg("exec.errors")

	v["memory.send_us_p50"] = p(spanSend, 0.5)
	v["memory.send_us_p99"] = p(spanSend, 0.99)
	v["memory.newframe_us_p50"] = p(spanNewFrame, 0.5)
	v["memory.params_per_frame"] = ratio(reg("memstats.params_applied"), reg("memstats.frames_fired"))
	v["memory.shard_contention"] = reg("memstats.shard_contention")
	v["memory.read_us_p50"] = p(spanRead, 0.5)
	v["memory.read_us_p99"] = p(spanRead, 0.99)
	v["memory.write_us_p50"] = p(spanWrite, 0.5)
	v["memory.write_us_p99"] = p(spanWrite, 0.99)
	hits, remote := reg("memstats.replica_hits"), reg("memstats.remote_reads")
	v["memory.replica_hit_ratio"] = ratio(hits, hits+remote)
	v["memory.remote_reads"] = remote
	v["memory.remote_writes"] = reg("memstats.remote_writes")
	v["memory.invalidates"] = reg("memstats.invalidates")
	v["memory.home_migrations"] = reg("memstats.home_migrations")
	v["memory.fetch_retries"] = reg("mem.fetch_retries")

	v["sched.hop_us_p50"] = p(spanHop, 0.5)
	v["sched.hop_us_p99"] = p(spanHop, 0.99)
	v["sched.help_asked"] = reg("sched.help_asked")
	v["sched.help_granted"] = reg("sched.help_granted")
	// help_granted counts frames, several to a reply; the hit ratio is the
	// share of requests that were not turned away.
	// (Replies to requests from before the window can push it below 0.)
	v["sched.help_hit_ratio"] = math.Max(0, ratio(reg("sched.help_asked")-reg("sched.help_denied"), reg("sched.help_asked")))
	v["sched.surrendered_per_kframe"] = ratio(reg("sched.frames_surrendered"), frames/1000)
	v["sched.site_imbalance"] = ratio(maxNorm, sumNorm/sites)
	// Sequential Work time over the capacity the window had (0 where the
	// microthreads do no simulated Work).
	v["sched.efficiency"] = ratio(float64(m.seqWork), speedSum*float64(m.elapsed))

	v["msgbus.msgs_per_frame"] = ratio(reg("bus.sent_msgs"), frames)
	v["msgbus.bytes_per_frame"] = ratio(reg("bus.sent_bytes"), frames)
	v["msgbus.msgs_per_op"] = ratio(reg("bus.sent_msgs"), float64(m.completed()))
	v["msgbus.dropped"] = reg("bus.dropped")

	v["netmgr.datagrams_per_msg"] = ratio(reg("net.send_datagrams"), reg("bus.sent_msgs"))
	v["netmgr.send_errors"] = reg("net.send_errors")

	v["program.submit_us_p50"] = p(spanSubmit, 0.5)
	v["program.submit_us_p99"] = p(spanSubmit, 0.99)
	v["program.wait_us_p50"] = p(spanWait, 0.5)

	v["cluster.signon_ms_p50"] = p(spanSignOn, 0.5) / 1e3

	v["checkpoint.taken"] = reg("ckpt.taken")
	v["checkpoint.stored"] = reg("ckpt.stored")
	v["checkpoint.ack_ratio"] = ratio(reg("ckpt.acked"), reg("ckpt.taken"))

	v["process.alloc_kb_per_op"] = ratio(float64(m.allocated)/1024, float64(m.completed()))

	for _, d := range st.durUS {
		v["trace.spans"] += float64(len(d))
	}
}
