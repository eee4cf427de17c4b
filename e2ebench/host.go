package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostFingerprint names the machine a result came from: CPU model,
// nproc, GOMAXPROCS, Go version and kernel. Results with different
// fingerprints are never compared.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

// hostCPU is the machine-wide CPU time from /proc/stat, in ticks.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	var h hostCPU
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		if i <= 8 { // user..steal; guest time is already inside user
			h.total += v
		}
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between since and h: a run with a large share ran on a busy host.
func (h hostCPU) stealPct(since hostCPU) float64 {
	if h.total <= since.total {
		return 0
	}
	return (h.steal - since.steal) / (h.total - since.total) * 100
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
