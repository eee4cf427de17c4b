package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// exactCountMetrics are counts the replay computes exactly: two traced
// runs with one seed must print identical values.
var exactCountMetrics = []string{
	"hipma.moves_per_update",
	"cobt.block_transfers_per_get",
	"cobt.block_transfers_per_update",
	"durable.fsyncs_per_checkpoint",
}

// steadiness runs cfg n times and prints, per metric, the median,
// quartiles, quartile spread as a share of the median, and max/min
// ratio. Untraced runs use seeds seed..seed+n-1; traced runs repeat one
// seed and also require the exact counts to agree bit for bit. A
// held-out seed, when given, runs once more and is printed beside the
// medians. It reports whether every run passed its checks.
func steadiness(cfg runConfig, n int, holdout uint64, fp string) bool {
	vals := map[string][]float64{}
	units := map[string]string{}
	ok := true
	var exact map[string]float64
	for i := 0; i < n; i++ {
		c := cfg
		if !cfg.trace {
			c.seed = cfg.seed + uint64(i)
		}
		res, err := runOnce(c)
		if err != nil {
			fmt.Printf("run %d (seed %d): %v\n", i, c.seed, err)
			ok = false
			continue
		}
		printResult(c, res)
		ok = ok && res.failed == 0
		for k, m := range res.metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
		if cfg.trace {
			if exact == nil {
				exact = map[string]float64{}
				for _, k := range exactCountMetrics {
					exact[k] = res.metrics[k].Value
				}
			}
			for _, k := range exactCountMetrics {
				if res.metrics[k].Value != exact[k] {
					fmt.Printf("EXACT COUNT DIFFERS %s: %v vs %v with seed %d\n", k, res.metrics[k].Value, exact[k], c.seed)
					ok = false
				}
			}
		}
	}
	var held map[string]metric
	if holdout != 0 {
		c := cfg
		c.seed = holdout
		res, err := runOnce(c)
		if err != nil {
			fmt.Printf("held-out seed %d: %v\n", holdout, err)
			ok = false
		} else {
			printResult(c, res)
			ok = ok && res.failed == 0
			held = res.metrics
		}
	}
	type row struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		MaxMin float64 `json:"max_min"`
		Held   float64 `json:"held_out,omitempty"`
	}
	summary := map[string]row{}
	fmt.Printf("steadiness %s: %d runs, host %s\n", cfg.sp.name, n, fp)
	fmt.Printf("  %-34s %14s %14s %14s %8s %8s %14s\n", "metric", "median", "q1", "q3", "spread", "max/min", "held-out")
	for _, k := range sortedKeys(vals) {
		v := vals[k]
		q1, med, q3 := quartiles(v)
		r := row{Unit: units[k], Median: med, Q1: q1, Q3: q3}
		if med != 0 {
			r.Spread = (q3 - q1) / med
		}
		lo, hi := minMax(v)
		if lo != 0 {
			r.MaxMin = hi / lo
		}
		heldStr := ""
		if m, ok := held[k]; ok {
			r.Held = m.Value
			heldStr = fmt.Sprintf("%14.6g", m.Value)
		}
		summary[k] = r
		fmt.Printf("  %-34s %14.6g %14.6g %14.6g %8.4f %8.4f %s\n", k, med, q1, q3, r.Spread, r.MaxMin, heldStr)
	}
	b, _ := json.Marshal(map[string]any{"workload": cfg.sp.name, "host": fp, "runs": n, "ok": ok, "metrics": summary})
	fmt.Println(string(b))
	return ok
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
