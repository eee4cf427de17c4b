package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/durable"
	"repro/internal/expiry"
	"repro/internal/foretest"
	"repro/internal/namespace"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestScrapeUnderLoad hammers the server with a mixed workload while
// concurrent readers scrape the registry's text exposition the whole
// time — the race detector gets every Observe/WriteText interleaving,
// and the scraped output must stay well-formed and monotone.
func TestScrapeUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	db := newTestDB(t, 4)
	defer db.Abandon()
	srv, addr := startTCP(t, db, Config{SweepInterval: -1, Metrics: reg})
	defer srv.Close()

	cl, err := client.OpenObserved(addr, 2, 5*time.Second, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(w*1_000_000 + i%512)
				switch i % 4 {
				case 0:
					cl.Put(k, k*2)
				case 1:
					cl.Get(k)
				case 2:
					cl.PutBatch([]client.Item{{Key: k, Val: 1}, {Key: k + 1, Val: 2}})
				case 3:
					cl.Delete(k)
				}
			}
		}(w)
	}
	// Scrape concurrently with the load, like a monitoring system would.
	var lastOps uint64
	for i := 0; i < 40; i++ {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, fam := range []string{
			"hidb_server_op_seconds", "hidb_server_phase_seconds",
			"hidb_server_requests_total", "hidb_client_request_seconds",
		} {
			if !strings.Contains(out, fam) {
				t.Fatalf("scrape %d missing family %s", i, fam)
			}
		}
		// Requests counted so far must be monotone across scrapes.
		ops := srv.st.requests.Load()
		if ops < lastOps {
			t.Fatalf("requests went backwards: %d then %d", lastOps, ops)
		}
		lastOps = ops
		time.Sleep(time.Millisecond) // interleave with the workload
	}
	close(stop)
	wg.Wait()

	// After quiesce, the per-op histograms' totals must equal the
	// dispatched request count exactly — nothing double counted or lost.
	// A request's latency runs to its reply's enqueue, so the last
	// observations can land just after the client holds every reply:
	// wait for them, but never accept a count past the requests.
	reqs := srv.st.requests.Load()
	if reqs == 0 {
		t.Fatal("workload issued no requests")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var histTotal uint64
		for op := range opLabels {
			if h := srv.sm.ops[op]; h != nil {
				histTotal += h.Snapshot().Count
			}
		}
		if histTotal == reqs {
			break
		}
		if histTotal > reqs || time.Now().After(deadline) {
			t.Fatalf("op histograms hold %d observations, server dispatched %d", histTotal, reqs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTelemetryForensicallyClean runs deletes, TTL expiries, and
// namespaced tenant traffic with distinctive keys, values, and a
// distinctive tenant name, with the slow-op threshold set so low that
// every operation is logged and tracing sampling everything, then
// seizes the slow-op log, a full /metrics scrape (exemplar suffixes
// included), the expvar stats JSON, and the complete /debug/traces
// dump, and greps them all — via the internal/foretest needle catalog:
// little-endian, big-endian, and decimal ASCII, plus the tenant's name
// and derived seed. Telemetry retained by an adversary must reveal
// only that operations happened, never which keys or which tenants
// they touched.
func TestTelemetryForensicallyClean(t *testing.T) {
	clk := expiry.NewManual(100)
	reg := obs.NewRegistry()
	var slowLog lockedBuffer
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 7, NoBackground: true, FS: durable.NewMemFS(), Clock: clk, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Abandon()
	tr := trace.NewStore(1024, 1, reg) // sample everything: maximal trace exposure
	srv, addr := startTCP(t, db, Config{
		SweepInterval:   -1,
		Metrics:         reg,
		SlowOpThreshold: time.Nanosecond, // everything is "slow": maximal log exposure
		SlowOpLog:       &slowLog,
		Trace:           tr,
	})
	defer srv.Close()

	cl, err := client.OpenObserved(addr, 1, 5*time.Second, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTrace(tr)

	const nDead = 24
	const tenant = "tenant-secret-xk"
	deadKey := func(i int64) int64 { return 0x5EC4E7_0000_0000 + i*0x01_0101 }
	deadVal := func(i int64) int64 { return -0x7A11_DEAD_0000_0000 + i*0x0107 }
	var needles []foretest.Needle
	for i := int64(0); i < nDead; i++ {
		needles = append(needles, foretest.Int64NeedlesText(fmt.Sprintf("deadKey(%d)", i), deadKey(i))...)
		needles = append(needles, foretest.Int64NeedlesText(fmt.Sprintf("deadVal(%d)", i), deadVal(i))...)
	}
	needles = append(needles, foretest.StringNeedle("tenant name", tenant))
	needles = append(needles, foretest.Uint64Needles("tenant derived seed",
		namespace.DeriveSeed(db.Store().RoutingSeed(), tenant))...)
	for i := int64(0); i < nDead; i++ {
		if i%2 == 0 {
			if _, err := cl.PutTTL(deadKey(i), deadVal(i), 200); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := cl.Put(deadKey(i), deadVal(i)); err != nil {
				t.Fatal(err)
			}
		}
		cl.Get(deadKey(i)) // reads go through the inline slow-op path too
	}
	// Half die by deletion, half by expiry.
	for i := int64(1); i < nDead; i += 2 {
		if _, err := cl.Delete(deadKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	// A tenant lives a full life across every namespaced opcode — put,
	// get, delete, list, drop — all under the maximal-exposure slow-op
	// log. Nothing tenant-identifying may reach any telemetry surface.
	for i := int64(0); i < 8; i++ {
		if _, err := cl.NSPut(tenant, deadKey(i), deadVal(i)); err != nil {
			t.Fatal(err)
		}
		cl.NSGet(tenant, deadKey(i))
	}
	if _, err := cl.NSDelete(tenant, deadKey(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.ListNS(); err != nil {
		t.Fatal(err)
	}
	if existed, err := cl.DropNS(tenant); err != nil || !existed {
		t.Fatalf("drop: %v %v", existed, err)
	}
	clk.Set(300)
	if _, err := cl.Checkpoint(); err != nil { // sweeps the expired half
		t.Fatal(err)
	}

	var metrics bytes.Buffer
	if err := reg.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=100000", nil))
	seized := map[string][]byte{
		"slow-op log":  slowLog.Bytes(),
		"metrics page": metrics.Bytes(),
		"expvar stats": statsJSON(t, srv),
		"trace dump":   rec.Body.Bytes(),
	}
	if len(seized["slow-op log"]) == 0 {
		t.Fatal("sanity: the slow-op log captured nothing")
	}
	if !bytes.Contains(seized["slow-op log"], []byte("slowop ts=")) {
		t.Fatalf("slow-op log is not logfmt: %.200s", seized["slow-op log"])
	}
	// The traced surfaces must actually be exposed before being declared
	// clean: spans in the dump, exemplars on the latency buckets, and
	// trace= correlation ids in the slow-op log — each carrying only
	// bare-hex trace ids, never anything an id could smuggle.
	var page struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(seized["trace dump"], &page); err != nil {
		t.Fatalf("trace dump is not JSON: %v", err)
	}
	if len(page.Traces) == 0 {
		t.Fatal("sanity: the trace dump captured no traces")
	}
	if !bytes.Contains(seized["metrics page"], []byte(`# {trace_id="`)) {
		t.Fatal("sanity: no exemplar reached the metrics page")
	}
	traceField := regexp.MustCompile(`trace=(\S+)`)
	bareHex := regexp.MustCompile(`^[0-9a-f]{1,16}$`)
	fields := traceField.FindAllSubmatch(seized["slow-op log"], -1)
	if len(fields) == 0 {
		t.Fatal("sanity: no slow-op record carried a trace= field")
	}
	for _, m := range fields {
		if !bareHex.Match(m[1]) {
			t.Fatalf("slow-op trace= value %q is not a bare hex id", m[1])
		}
	}
	for where, data := range seized {
		foretest.AssertAbsent(t, where, data, needles)
	}
}

// statsJSON renders the server's Stats as expvar would publish it —
// the third telemetry surface an adversary could seize.
func statsJSON(t *testing.T, srv *Server) []byte {
	t.Helper()
	data, err := json.Marshal(srv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// lockedBuffer is a goroutine-safe bytes.Buffer for capturing the
// slow-op log from the server's concurrent recorders.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestStatsKeysPhysicalVsLogical pins the satellite fix: the old single
// "keys" stat summed physical shard lengths, silently counting expired
// entries the sweeper had not reached. The two counts must now be
// reported distinctly and disagree by exactly the sweep backlog.
func TestStatsKeysPhysicalVsLogical(t *testing.T) {
	clk := expiry.NewManual(100)
	db, err := durable.Open("db", &durable.Options{
		Shards: 4, Seed: 3, NoBackground: true, NoSweep: true, FS: durable.NewMemFS(), Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Abandon()
	srv := New(db, Config{SweepInterval: -1})
	defer srv.Close()

	for k := int64(0); k < 10; k++ {
		db.Put(k, k)
	}
	for k := int64(100); k < 105; k++ {
		db.PutTTL(k, k, 150) // will expire at 150
	}
	st := srv.Stats()
	if st.KeysPhysical != 15 || st.KeysLogical != 15 {
		t.Fatalf("before expiry: physical=%d logical=%d, want 15/15", st.KeysPhysical, st.KeysLogical)
	}
	clk.Set(200) // the 5 TTL entries are now dead but unswept
	st = srv.Stats()
	if st.KeysPhysical != 15 {
		t.Fatalf("physical=%d, want 15 (expired entries still physically present)", st.KeysPhysical)
	}
	if st.KeysLogical != 10 {
		t.Fatalf("logical=%d, want 10 (expired entries invisible)", st.KeysLogical)
	}
	if n := db.SweepExpired(200); n != 5 {
		t.Fatalf("swept %d, want 5", n)
	}
	st = srv.Stats()
	if st.KeysPhysical != 10 || st.KeysLogical != 10 {
		t.Fatalf("after sweep: physical=%d logical=%d, want 10/10", st.KeysPhysical, st.KeysLogical)
	}
}
