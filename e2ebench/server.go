package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/client"
)

// server is one hidbd process started with its shipped defaults; the
// benchmark sets only where it keeps its directory and where it
// listens.
type server struct {
	cmd       *exec.Cmd
	addr      string
	debugAddr string
	exited    chan error
	killOnce  sync.Once
}

// freePort reserves a loopback port for the debug listener, which
// hidbd does not report when given port 0.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs hidbd on dir and returns once it answers a PING.
func startServer(bin, dir string) (*server, error) {
	dbg, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0", "-debug-addr", dbg)
	cmd.Stderr = os.Stderr
	// If this process dies first, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hidbd: %w", err)
	}
	s := &server{cmd: cmd, debugAddr: dbg, exited: make(chan error, 1)}
	addrc := make(chan string, 1)
	go func() {
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		// "hidbd: serving DIR (N keys, S shards) on ADDR as primary"
		if i := strings.LastIndex(line, " on "); i >= 0 {
			if f := strings.Fields(line[i+4:]); len(f) > 0 {
				addrc <- f[0]
			}
		}
		close(addrc)
		_, _ = io.Copy(io.Discard, br)
		s.exited <- cmd.Wait()
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("hidbd on %s exited before serving", dir)
		}
		s.addr = a
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("hidbd on %s did not start within 60s", dir)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		c, err := client.DialTimeout(s.addr, time.Second)
		if err == nil {
			err = c.Ping([]byte("up"))
			c.Close()
			if err == nil {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("hidbd at %s never answered PING: %w", s.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the process and waits for it to be gone. Later calls
// do nothing.
func (s *server) kill() {
	s.killOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
		<-s.exited
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// scrape fetches /metrics as a map from series (name plus labels) to
// value.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.debugAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return out, nil
}

// procStats are the kernel's counters for one process.
type procStats struct {
	cpuTicks  float64 // utime + stime, in clock ticks
	syscalls  float64 // read + write syscalls (/proc/pid/io)
	ctxSwitch float64 // voluntary + involuntary, summed over threads
	hwmKB     float64 // peak resident set (VmHWM)
}

// clockTick is USER_HZ, which Linux fixes at 100 for every
// architecture's /proc interface.
const clockTick = 100

func readProc(pid int) (procStats, error) {
	var ps procStats
	dir := fmt.Sprintf("/proc/%d", pid)
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("%s/stat: short line", dir)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	ps.cpuTicks = ut + st
	if err := readKV(dir+"/io", func(k string, v float64) {
		if k == "syscr" || k == "syscw" {
			ps.syscalls += v
		}
	}); err != nil {
		return ps, err
	}
	if err := readKV(dir+"/status", func(k string, v float64) {
		if k == "VmHWM" {
			ps.hwmKB = v
		}
	}); err != nil {
		return ps, err
	}
	tasks, _ := filepath.Glob(dir + "/task/*/status")
	for _, t := range tasks {
		_ = readKV(t, func(k string, v float64) {
			if k == "voluntary_ctxt_switches" || k == "nonvoluntary_ctxt_switches" {
				ps.ctxSwitch += v
			}
		})
	}
	return ps, nil
}

// readKV parses "key: value [unit]" lines.
func readKV(name string, fn func(string, float64)) error {
	b, err := os.ReadFile(name)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				fn(k, v)
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the plain files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// syncDir fsyncs every plain file in dir.
func syncDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		err = f.Sync()
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
