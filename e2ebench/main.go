// Command e2ebench is the end-to-end benchmark of hidbd. It runs the
// hidbd binary built from this tree as a separate process with its
// shipped defaults, drives it through repro/client with one of three
// workloads, checks every reply against an exact model, SIGKILLs and
// restarts the server to check durability, and prints the metrics.
//
// Usage (run.sh builds both binaries and passes -hidbd and -work):
//
//	e2ebench -hidbd BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//	e2ebench ... --workload all            every workload in turn
//	e2ebench ... --repeat 10 [--holdout N]  steadiness: quartiles per metric
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and a ledger table is printed before the JSON. The
// process exits 1 when any reply, or any read-back after the restart,
// disagrees with the model.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		hidbd    = flag.String("hidbd", "", "hidbd binary to benchmark (required)")
		work     = flag.String("work", "", "scratch directory for databases and spans (required)")
		workload = flag.String("workload", "", "read_heavy, write_churn, mixed_ops, or all")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run and a replay")
		repeat   = flag.Int("repeat", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, ...; traced runs repeat seed)")
		holdout  = flag.Uint64("holdout", 0, "steadiness mode: one more run with this held-out seed (0: none)")
	)
	flag.Parse()
	if *hidbd == "" || *work == "" || *workload == "" {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -hidbd BIN -work DIR --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*work, 0o700); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	fp := hostFingerprint()
	fmt.Printf("host %s\n", fp)

	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	ok := true
	for _, name := range names {
		sp, err := specByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		cfg := runConfig{hidbd: *hidbd, work: *work, sp: sp, seed: *seed, seconds: *seconds, trace: *traced == 1}
		if *repeat > 0 {
			ok = steadiness(cfg, *repeat, *holdout, fp) && ok
			continue
		}
		ok = runAndPrint(cfg) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

// runAndPrint runs cfg once, prints its metrics and result line, and
// reports whether every check passed.
func runAndPrint(cfg runConfig) bool {
	res, err := runOnce(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench %s: %v\n", cfg.sp.name, err)
		return false
	}
	printResult(cfg, res)
	return res.failed == 0
}

func printResult(cfg runConfig, res *runResult) {
	for _, m := range res.errMsgs {
		fmt.Fprintln(os.Stderr, "MISMATCH", m)
	}
	if res.ledger != "" {
		fmt.Print(res.ledger)
	}
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, error_rate %.3g, %d latency samples (p99 %.0f us), host steal %.1f%%\n",
		cfg.sp.name, cfg.seed, res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)), res.samples, res.p99/1e3, res.stealPct)
	for _, name := range sortedKeys(res.metrics) {
		m := res.metrics[name]
		fmt.Printf("  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, _ := json.Marshal(result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics})
	fmt.Println(string(b))
}
