package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/client"
)

const (
	setupReps   = 3  // setups per run; setup_s is their median
	recoverReps = 11 // restarts per run; recover_s is their median
	warmSeconds = 1.0
	preloadConc = 64   // preload requests in flight
	preloadRun  = 1024 // keys per preload PUTBATCH
	checkChunk  = 1024 // keys per durability-check GETBATCH
	nsSample    = 8    // the durability check reads every nsSample-th unwritten tenant key
	itemBytes   = 16   // one key-value pair: two int64s
)

// runConfig is one benchmark run of one workload.
type runConfig struct {
	hidbd   string
	work    string
	sp      *spec
	seed    uint64
	seconds float64
	trace   bool
}

// runResult is what one run measured.
type runResult struct {
	attempted, failed int64
	errMsgs           []string
	metrics           map[string]metric
	samples           int     // latency samples behind latency_p50_us
	p99               float64 // ns, printed beside the metrics
	stealPct          float64 // share of host CPU time stolen by the hypervisor in the window
	ledger            string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// snapshot is every counter a window's metrics are deltas of.
type snapshot struct {
	t       time.Time
	prom    map[string]float64
	proc    procStats
	cpu     time.Duration // this process's user+system time
	mallocs uint64
	host    hostCPU
}

func takeSnapshot(srv *server) (snapshot, error) {
	s := snapshot{t: time.Now()}
	var err error
	if s.prom, err = srv.scrape(); err != nil {
		return s, err
	}
	if s.proc, err = readProc(srv.pid()); err != nil {
		return s, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.host = readHostCPU()
	return s, nil
}

// runOnce performs one complete run: set up, drive the workload,
// SIGKILL, restart, check durability and, when tracing, replay the op
// stream through the layers in-process.
func runOnce(cfg runConfig) (*runResult, error) {
	sp := cfg.sp
	root := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", sp.name, cfg.seed, os.Getpid()))
	dir := filepath.Join(root, "db")
	defer os.RemoveAll(root)
	gens := newGens(sp, cfg.seed)
	srv, setups, err := setUp(cfg.hidbd, root, dir, gens)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	res := &runResult{metrics: map[string]metric{}}
	ws, snaps, cp, err := runLoad(cfg, srv, gens)
	if err != nil {
		return nil, err
	}
	models := make([]*model, len(ws))
	for i, w := range ws {
		res.attempted += w.probes
		for ph := 0; ph < numPhases; ph++ {
			res.attempted += w.ops[ph]
		}
		res.failed += w.errs
		res.errMsgs = append(res.errMsgs, w.errMsgs...)
		models[i] = &w.m
	}
	a, b := snaps[0], snaps[1]
	win := b.t.Sub(a.t).Seconds()
	lat := gather(ws, func(w *worker) []int64 { return w.lat[phMeasure] })
	ops := float64(len(lat))
	if ops == 0 {
		return nil, fmt.Errorf("%s: no ops completed in the measured window", sp.name)
	}
	syncs := cp.between(a.t, b.t)
	if len(syncs) == 0 {
		return nil, fmt.Errorf("%s: no CHECKPOINT completed in the measured window", sp.name)
	}
	res.samples, res.p99 = len(lat), pct(lat, 0.99)
	res.stealPct = b.host.stealPct(a.host)
	e2e := map[string]metric{
		"ops_per_s":            {ops / win, "1/s"},
		"latency_p50_us":       {pct(lat, 0.50) / 1e3, "us"},
		"sync_p25_ms":          {pct(syncs, 0.25) / 1e6, "ms"},
		"server_cpu_us_per_op": {(b.proc.cpuTicks - a.proc.cpuTicks) / clockTick * 1e6 / ops, "us"},
		"write_amp":            {delta(a, b, "hidb_checkpoint_bytes_sum") / (itemBytes * float64(writtenKeys(ws, phMeasure))), "ratio"},
		"setup_s":              {median(setups), "s"},
	}
	if cfg.trace {
		res.metrics = layerMetrics(ws, snaps, ops/win, cp.between(snaps[1].t, snaps[2].t))
	}

	// Restart after the crash, and check that what was acknowledged
	// survived.
	rec, err := recoverAndCheck(cfg.hidbd, dir, gens, models, cp.cut)
	if err != nil {
		return nil, err
	}
	res.attempted += rec.checked
	res.failed += rec.failed
	res.errMsgs = append(res.errMsgs, rec.msgs...)
	e2e["recover_s"] = metric{median(rec.secs), "s"}
	e2e["server_rss_mb"] = metric{median(rec.hwmKB) / 1024, "MB"}
	e2e["space_amp"] = metric{float64(rec.dirBytes) / float64(rec.live*itemBytes), "ratio"}
	if !cfg.trace {
		res.metrics = e2e
		return res, nil
	}

	rp, err := replay(sp, cfg.seed, filepath.Join(root, "replay"))
	if err != nil {
		return nil, err
	}
	for k, v := range rp.metrics {
		res.metrics[k] = v
	}
	rt := res.metrics["client.round_trip_mean_us"].Value * 1e3
	res.metrics["ledger.unattributed_pct"] = metric{(rt - rp.protoNs - rp.durableNs) / rt * 100, "%"}
	res.ledger = ledgerTable(res.metrics, rp)
	if err := writeSpans(filepath.Join(cfg.work, sp.name+"-spans.tsv"), ws); err != nil {
		return nil, err
	}
	return res, nil
}

// setUp starts hidbd on an empty directory, preloads it and waits for
// the first CHECKPOINT, setupReps times; it returns the last server and
// every set-up time.
func setUp(bin, root, dir string, gens []*gen) (*server, []float64, error) {
	var setups []float64
	for rep := 0; ; rep++ {
		if err := os.RemoveAll(root); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		s, err := startServer(bin, dir)
		if err != nil {
			return nil, nil, err
		}
		if err := preload(s.addr, gens); err != nil {
			s.kill()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep == setupReps-1 {
			return s, setups, nil
		}
		s.kill()
	}
}

// runLoad runs the workload on srv: warm-up, then (when tracing) the
// probes, the measured window and (when tracing) the traced window, with
// the CHECKPOINT ticker throughout. It ends by SIGKILLing the server
// under load. It returns the workers, a snapshot at each window
// boundary, and the finished checkpointer.
func runLoad(cfg runConfig, srv *server, gens []*gen) ([]*worker, []snapshot, *checkpointer, error) {
	sp := cfg.sp
	conns := make([]*client.Conn, sp.conns)
	for i := range conns {
		c, err := client.Dial(srv.addr)
		if err != nil {
			return nil, nil, nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	ws := make([]*worker, len(gens))
	for i, g := range gens {
		ws[i] = &worker{id: i, conn: conns[i%len(conns)], g: g}
	}
	rs := &runState{base: time.Now()}
	var period time.Duration
	if sp.openRate > 0 {
		period = time.Duration(float64(len(ws)) / sp.openRate * float64(time.Second))
	}
	var done chan struct{}
	start := func(ph int32) {
		rs.phase.Store(ph)
		done = make(chan struct{})
		t0 := time.Now()
		go func(done chan struct{}) {
			runWorkers(ws, func(w *worker) {
				// Spread the open-loop workers' schedules over a period.
				first := t0.Add(period * time.Duration(w.id) / time.Duration(len(ws)))
				w.loop(rs, period, first, nil)
			})
			close(done)
		}(done)
	}
	stopWorkers := func() {
		rs.phase.Store(phStop)
		<-done
	}
	cp := startCheckpointer(conns[0], rs, cfg.seed)
	fail := func(err error) ([]*worker, []snapshot, *checkpointer, error) {
		stopWorkers()
		cp.finish()
		return nil, nil, nil, err
	}
	sleep := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-done: // every worker failed; the run has failed
		}
	}

	start(phWarm)
	sleep(time.Duration(warmSeconds * float64(time.Second)))
	window := time.Duration(cfg.seconds * float64(time.Second))
	phases := []int32{phMeasure}
	if cfg.trace {
		stopWorkers()
		probeAbsentClasses(sp, ws, rs)
		window /= 2
		phases = append(phases, phTraced)
		start(phWarm)
	}
	var snaps []snapshot
	for _, ph := range phases {
		s, err := takeSnapshot(srv)
		if err != nil {
			return fail(err)
		}
		snaps = append(snaps, s)
		rs.phase.Store(ph)
		sleep(window)
	}
	s, err := takeSnapshot(srv)
	if err != nil {
		return fail(err)
	}
	snaps = append(snaps, s)
	rs.crashed.Store(true)
	srv.kill()
	stopWorkers()
	cp.finish()
	if cp.err != nil {
		return nil, nil, nil, fmt.Errorf("client CHECKPOINT: %w", cp.err)
	}
	return ws, snaps, cp, nil
}

// recovery is what recoverAndCheck measured.
type recovery struct {
	secs, hwmKB     []float64 // per restart: exec to first PING reply, and VmHWM then
	checked, failed int64
	msgs            []string
	live, dirBytes  int64
}

// recoverAndCheck restarts hidbd on the crashed directory recoverReps
// times, then reads the workers' keys back from the last one and
// checks them against the durability contract.
func recoverAndCheck(bin, dir string, gens []*gen, models []*model, cut int64) (*recovery, error) {
	// Write the directory's dirty pages back first, so recovery is not
	// timed against the kernel flushing the last checkpoints.
	if err := syncDir(dir); err != nil {
		return nil, err
	}
	rec := &recovery{}
	var srv *server
	for rep := 0; rep < recoverReps; rep++ {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		s, err := startServer(bin, dir)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		rec.secs = append(rec.secs, time.Since(t0).Seconds())
		srv = s
		ps, err := readProc(srv.pid())
		if err != nil {
			srv.kill()
			return nil, err
		}
		rec.hwmKB = append(rec.hwmKB, ps.hwmKB)
	}
	var err error
	rec.checked, rec.failed, rec.msgs, err = verifyRecovered(srv.addr, gens, models, cut)
	if err == nil {
		rec.live, err = liveKeys(srv.addr)
	}
	srv.kill()
	if err != nil {
		return nil, err
	}
	if rec.dirBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	return rec, nil
}

func newGens(sp *spec, seed uint64) []*gen {
	gens := make([]*gen, sp.workers())
	for w := range gens {
		gens[w] = newGen(sp, seed, w)
	}
	return gens
}

// preload writes every worker's preloaded keys (version 0) and commits
// them with a CHECKPOINT.
func preload(addr string, gens []*gen) error {
	conns := make([]*client.Conn, 2)
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = c
	}
	type job struct {
		sp     *space
		lo, hi int
	}
	jobs := make(chan job)
	errc := make(chan error, preloadConc)
	for i := 0; i < preloadConc; i++ {
		go func(c *client.Conn) {
			var err error
			for j := range jobs {
				if err != nil {
					continue
				}
				err = preloadJob(c, j.sp, j.lo, j.hi)
			}
			errc <- err
		}(conns[i%len(conns)])
	}
	for _, g := range gens {
		for _, s := range g.spaces() {
			step := preloadRun
			if s.ns != "" {
				step = 1
			}
			for lo := 0; lo < s.preN; lo += step {
				jobs <- job{s, lo, min(lo+step, s.preN)}
			}
		}
	}
	close(jobs)
	var first error
	for i := 0; i < preloadConc; i++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return fmt.Errorf("preload: %w", first)
	}
	if _, err := conns[0].Checkpoint(); err != nil {
		return fmt.Errorf("preload checkpoint: %w", err)
	}
	return nil
}

func preloadJob(c *client.Conn, s *space, lo, hi int) error {
	if s.ns != "" {
		ins, err := c.NSPut(s.ns, s.key(lo), valueOf(s.key(lo), 0))
		if err == nil && !ins {
			err = fmt.Errorf("key %d in %s already present", s.key(lo), s.ns)
		}
		return err
	}
	items := make([]client.Item, 0, hi-lo)
	for i := lo; i < hi; i++ {
		items = append(items, client.Item{Key: s.key(i), Val: valueOf(s.key(i), 0)})
	}
	n, err := c.PutBatch(items)
	if err == nil && n != len(items) {
		err = fmt.Errorf("batch of %d fresh keys inserted %d", len(items), n)
	}
	return err
}

// verifyRecovered reads back every key of the default keyspace and the
// written (plus a sample of unwritten) tenant keys, and checks each
// against the states the durability contract allows.
func verifyRecovered(addr string, gens []*gen, models []*model, cut int64) (checked, failed int64, msgs []string, err error) {
	legal := durableStates(models, cut)
	conns := make([]*client.Conn, 2)
	for i := range conns {
		c, err := client.Dial(addr)
		if err != nil {
			return 0, 0, nil, err
		}
		defer c.Close()
		conns[i] = c
	}
	type tally struct {
		checked, failed int64
		msgs            []string
		err             error
	}
	tallies := make([]tally, len(gens))
	ws := make([]*worker, len(gens))
	for i := range ws {
		ws[i] = &worker{id: i}
	}
	runWorkers(ws, func(w *worker) {
		t := &tallies[w.id]
		c := conns[w.id%len(conns)]
		note := func(e error) {
			t.checked++
			if e != nil {
				t.failed++
				if len(t.msgs) < 3 {
					t.msgs = append(t.msgs, e.Error())
				}
			}
		}
		for _, s := range gens[w.id].spaces() {
			if s.ns == "" {
				for lo := 0; lo < len(s.st); lo += checkChunk {
					hi := min(lo+checkChunk, len(s.st))
					keys := make([]int64, 0, hi-lo)
					for i := lo; i < hi; i++ {
						keys = append(keys, s.key(i))
					}
					vals, oks, err := c.GetBatch(keys)
					if err != nil {
						t.err = err
						return
					}
					now := unixNow()
					for j := range keys {
						note(checkRecovered(s, lo+j, legal[s][lo+j], oks[j], vals[j], now))
					}
				}
				continue
			}
			for i := range s.st {
				if _, written := legal[s][i]; !written && i%nsSample != 0 {
					continue
				}
				v, ok, err := c.NSGet(s.ns, s.key(i))
				if err != nil {
					t.err = err
					return
				}
				note(checkRecovered(s, i, legal[s][i], ok, v, unixNow()))
			}
		}
	})
	for _, t := range tallies {
		if t.err != nil {
			return 0, 0, nil, fmt.Errorf("durability check: %w", t.err)
		}
		checked += t.checked
		failed += t.failed
		msgs = append(msgs, t.msgs...)
	}
	return checked, failed, msgs, nil
}

// liveKeys counts live keys in the default keyspace and every tenant.
func liveKeys(addr string) (int64, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	n, err := c.Len()
	if err != nil {
		return 0, err
	}
	_, tenants, err := c.ListNS()
	if err != nil {
		return 0, err
	}
	total := int64(n)
	for _, t := range tenants {
		total += int64(t.Keys)
	}
	return total, nil
}

// gather merges f's samples over all workers, sorted.
func gather(ws []*worker, f func(*worker) []int64) []int64 {
	var out []int64
	for _, w := range ws {
		out = append(out, f(w)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// writtenKeys counts keys written by ops sent in phase ph.
func writtenKeys(ws []*worker, ph int) int64 {
	var n int64
	for _, w := range ws {
		n += w.wkeys[ph]
	}
	return n
}

func delta(a, b snapshot, series string) float64 { return b.prom[series] - a.prom[series] }

// pct is the q-quantile of sorted xs (nearest rank).
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
