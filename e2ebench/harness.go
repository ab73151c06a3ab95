package main

import (
	"bufio"
	"context"
	"fmt"
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
)

// proc is one started server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
}

// procTable tracks every started process so that each is stopped on every
// exit path.
type procTable struct {
	mu   sync.Mutex
	live []*proc
}

var procs procTable

// start launches bin with args, logging to dir/<name>.log. The child is
// killed by the kernel if the benchmark dies first.
func (t *procTable) start(bin, dir, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		_ = logf.Close()
		close(p.done)
	}()
	t.mu.Lock()
	t.live = append(t.live, p)
	t.mu.Unlock()
	return p, nil
}

// stop sends SIGTERM, waits up to 5s, then SIGKILLs and waits for exit.
func (t *procTable) stop(p *proc) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	t.mu.Lock()
	for i, q := range t.live {
		if q == p {
			t.live = append(t.live[:i], t.live[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// stopAll stops every process still running.
func (t *procTable) stopAll() {
	t.mu.Lock()
	live := append([]*proc(nil), t.live...)
	t.mu.Unlock()
	for _, p := range live {
		t.stop(p)
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// vmHWM returns the process's peak resident set size in bytes.
func (p *proc) vmHWM() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr, nil
}

// waitUntil polls probe every 10ms until it succeeds, the process exits or
// the timeout passes.
func waitUntil(ctx context.Context, p *proc, timeout time.Duration, probe func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if probe() {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see its log)", p.name)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", p.name, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func healthy(base string) func() bool {
	c := &http.Client{Timeout: time.Second}
	return func() bool {
		resp, err := c.Get(base + "/healthz")
		if err != nil {
			return false
		}
		_ = resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
}

func dialable(addr string) func() bool {
	return func() bool {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		_ = c.Close()
		return true
	}
}

// deployment is the set of server processes of one workload and the HTTP
// base URL clients talk to.
type deployment struct {
	base  string
	procs []*proc
}

// rss sums the peak RSS of the deployment's processes in MB.
func (d *deployment) rssMB() (float64, error) {
	var total int64
	for _, p := range d.procs {
		b, err := p.vmHWM()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return float64(total) / (1 << 20), nil
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		procs.stop(p)
	}
}

// deploy starts the servers a workload needs and waits until they answer.
func deploy(ctx context.Context, cfg runConfig, in *inputs, round int) (*deployment, error) {
	d := &deployment{}
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	d.base = "http://" + httpAddr
	common := []string{"-addr", httpAddr, "-log-level", "warn", "-max-prepared-per-tenant", "-1"}
	if cfg.w.slice > 0 {
		common = append(common, "-slice", strconv.Itoa(cfg.w.slice))
	}
	tag := fmt.Sprintf("r%d", round)
	var args []string
	switch cfg.w.mode {
	case "mem":
		args = append([]string{"-db", in.dbPath}, common...)
	case "layout":
		args = append([]string{"-layout", in.wvlsPath}, common...)
	case "mvcc":
		args = append([]string{"-db", in.dbPath, "-mvcc"}, common...)
	case "sharded":
		var addrs []string
		for i := 0; i < 2; i++ {
			addr, err := freePort()
			if err != nil {
				return nil, err
			}
			p, err := procs.start(cfg.bin, cfg.work, fmt.Sprintf("shard%d-%s", i, tag),
				"-db", in.dbPath, "-shard-listen", addr, "-shard-index", strconv.Itoa(i),
				"-shard-count", "2", "-log-level", "warn")
			if err != nil {
				d.stop()
				return nil, err
			}
			d.procs = append(d.procs, p)
			addrs = append(addrs, addr)
		}
		for i, addr := range addrs {
			if err := waitUntil(ctx, d.procs[i], 60*time.Second, dialable(addr)); err != nil {
				d.stop()
				return nil, err
			}
		}
		args = append([]string{"-shards", strings.Join(addrs, ",")}, common...)
	default:
		return nil, fmt.Errorf("unknown mode %q", cfg.w.mode)
	}
	p, err := procs.start(cfg.bin, cfg.work, "wvqd-"+tag, args...)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.procs = append(d.procs, p)
	if err := waitUntil(ctx, p, 60*time.Second, healthy(d.base)); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}
