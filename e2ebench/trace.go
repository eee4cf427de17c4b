package main

import (
	"bufio"
	"fmt"
	"os"
)

const probeOps = 40 // ops per worker of each class the mix lacks

// probeAbsentClasses sends probeOps ops per worker of every class the
// workload's mix lacks, so every per-class client metric is measured on
// every workload. Probes run after the traced window and are checked
// like any other op.
func probeAbsentClasses(sp *spec, ws []*worker, rs *runState) {
	for c := opClass(0); c < numClasses; c++ {
		if sp.mix[c] > 0 {
			continue
		}
		runWorkers(ws, func(w *worker) {
			left := probeOps
			w.loop(rs, 0, rs.base, func(w *worker) (op, bool) {
				left--
				return w.g.of(c), left >= 0
			})
		})
	}
}

// layerMetrics computes the per-layer metrics of the traced window
// (snaps[1] to snaps[2]) from the benchmark's spans, this process's
// counters, and the server's /metrics and /proc counters.
func layerMetrics(ws []*worker, snaps []snapshot, untracedOpsPerS float64, syncs []int64) map[string]metric {
	b, c := snaps[1], snaps[2]
	win := c.t.Sub(b.t).Seconds()
	var ops float64
	for _, w := range ws {
		ops += float64(w.ops[phTraced])
	}
	d := func(series string) float64 { return delta(b, c, series) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]metric{
		"client.cpu_us_per_op":        {float64(c.cpu-b.cpu) / 1e3 / ops, "us"},
		"client.allocs_per_op":        {float64(c.mallocs-b.mallocs) / ops, "count"},
		"loadgen.late_p99_ms":         {pct(gather(ws, func(w *worker) []int64 { return w.late[phTraced] }), 0.99) / 1e6, "ms"},
		"proto.wire_bytes_per_op":     {(d("hidb_server_bytes_in_total") + d("hidb_server_bytes_out_total")) / ops, "B"},
		"server.syscalls_per_op":      {(c.proc.syscalls - b.proc.syscalls) / ops, "count"},
		"server.ctx_switches_per_op":  {(c.proc.ctxSwitch - b.proc.ctxSwitch) / ops, "count"},
		"server.replies_per_flush":    {ratio(d("hidb_server_requests_total"), d("hidb_server_flush_bytes_count")), "count"},
		"server.write_batch_ops_mean": {ratio(d("hidb_server_write_batch_ops_sum"), d("hidb_server_write_batch_ops_count")), "count"},
		"server.swept_keys_per_s":     {d("hidb_server_swept_keys_total") / win, "1/s"},
		"server.namespaces":           {c.prom["hidb_server_namespaces"], "count"},
		"durable.checkpoint_ms":       {ratio(d("hidb_checkpoint_seconds_sum"), d("hidb_checkpoint_seconds_count")) * 1e3, "ms"},
		"durable.checkpoint_mb":       {ratio(d("hidb_checkpoint_bytes_sum"), d("hidb_checkpoint_bytes_count")) / (1 << 20), "MB"},
		"durable.checkpoints_per_s":   {d("hidb_checkpoint_seconds_count") / win, "1/s"},
		"ledger.trace_overhead_pct":   {(untracedOpsPerS - ops/win) / untracedOpsPerS * 100, "%"},
		"client.latency_p99_us":       {pct(gather(ws, func(w *worker) []int64 { return w.lat[phTraced] }), 0.99) / 1e3, "us"},
		"server.rss_hwm_mb":           {c.proc.hwmKB / 1024, "MB"},
		"client.sync_p50_ms":          {pct(syncs, 0.5) / 1e6, "ms"},
		"client.round_trip_mean_us":   {meanNs(gather(ws, spanDurs(numClasses))) / 1e3, "us"},
	}
	for _, ph := range []string{"decode", "coalesce_wait", "apply", "encode", "flush"} {
		sum := fmt.Sprintf("hidb_server_phase_seconds_sum{phase=%q}", ph)
		cnt := fmt.Sprintf("hidb_server_phase_seconds_count{phase=%q}", ph)
		m["server.phase_"+ph+"_us"] = metric{ratio(d(sum), d(cnt)) * 1e6, "us"}
	}
	for cl := opClass(0); cl < numClasses; cl++ {
		m["client."+cl.String()+"_p50_us"] = metric{pct(gather(ws, spanDurs(cl)), 0.5) / 1e3, "us"}
	}
	return m
}

// spanDurs selects the durations of a worker's spans of class c, or of
// every class when c is numClasses.
func spanDurs(c opClass) func(*worker) []int64 {
	return func(w *worker) []int64 {
		var out []int64
		for _, s := range w.spans {
			if c == numClasses || s.class == c {
				out = append(out, s.dur)
			}
		}
		return out
	}
}

func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// writeSpans writes every traced client call as worker, class, start
// and duration (ns since the run began), one per line.
func writeSpans(name string, ws []*worker) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "worker\tclass\tstart_ns\tdur_ns")
	for _, w := range ws {
		for _, s := range w.spans {
			fmt.Fprintf(bw, "%d\t%s\t%d\t%d\n", s.worker, s.class, s.start, s.dur)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerTable renders the per-request cost ledger: the client round
// trip, the server's own phase means, and the replayed layers' time on
// the same op stream, each with its self time.
func ledgerTable(m map[string]metric, rp *replayResult) string {
	rt := m["client.round_trip_mean_us"].Value * 1e3
	var sb []string
	row := func(layer, what string, ns, self float64) {
		share := ""
		if rt > 0 && self >= 0 {
			share = fmt.Sprintf("%6.2f%%", self/rt*100)
		}
		sb = append(sb, fmt.Sprintf("  %-9s %-38s %12.0f ns  self %12.0f ns  %s", layer, what, ns, self, share))
	}
	row("client", "round trip, mean per request", rt, -1)
	for _, ph := range []string{"decode", "coalesce_wait", "apply", "encode", "flush"} {
		v := m["server.phase_"+ph+"_us"].Value * 1e3
		row("server", "phase "+ph+" (mean per event)", v, -1)
	}
	row("proto", "encode+decode of request and reply", rp.protoNs, rp.protoNs)
	row("durable", "replayed op, mean (excl. checkpoint)", rp.durableNs, rp.durableNs-rp.shardNs)
	row("shard", "replayed op, mean", rp.shardNs, rp.shardNs-rp.cobtNs)
	row("cobt", "replayed op, mean", rp.cobtNs, rp.cobtNs)
	row("ledger", "unattributed (round trip - replayed)", rt-rp.protoNs-rp.durableNs, rt-rp.protoNs-rp.durableNs)
	out := "ledger (traced run; self time as a share of the client round trip)\n"
	for _, l := range sb {
		out += l + "\n"
	}
	return out
}
