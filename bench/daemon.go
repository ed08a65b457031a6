package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"adasim/internal/client"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one spawned adasimd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	c      *client.Client
	exited chan struct{}
	// waitErr is the process's exit status, valid once exited is closed.
	waitErr error
	stderr  *tailBuffer
	// readyMs is spawn to the first /healthz 200.
	readyMs float64
}

// startDaemon spawns bin with args plus a free loopback -addr and waits
// until /healthz answers. The child dies with the benchmark (Pdeathsig),
// so an interrupted run leaves no daemon behind.
func startDaemon(bin string, args []string) (*daemon, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		stderr: &tailBuffer{max: 8 << 10},
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = d.stderr
	d.cmd.Stderr = d.stderr
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	d.c = client.New(d.base)
	d.c.Retries = -1
	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(30 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyMs = float64(time.Since(start).Microseconds()) / 1e3
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("adasimd exited before ready (%v): %s", d.waitErr, d.stderr)
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("adasimd not ready after 30s: %s", d.stderr)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon that does not exit within the timeout is killed.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.exitError()
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return fmt.Errorf("signaling adasimd: %w", err)
	}
	select {
	case <-d.exited:
		return d.exitError()
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("adasimd did not drain within 60s: %s", d.stderr)
	}
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

func (d *daemon) exitError() error {
	if d.waitErr != nil {
		return fmt.Errorf("adasimd exited: %v: %s", d.waitErr, d.stderr)
	}
	return nil
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// cpuMs is the daemon's user plus system CPU time so far.
func (d *daemon) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", s)
	}
	return (utime + stime) * 1000 / clockTicks, nil
}

// rssPeakMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) rssPeakMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// metrics scrapes and parses /metrics.
func (d *daemon) metrics() (scrape, error) {
	b, err := d.c.GetRaw("/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return parseExposition(string(b))
}

// freeLoopbackAddr reserves a free loopback port by binding and
// releasing it; the daemon binds it again a moment later.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// tailBuffer keeps the last max bytes written to it, for error messages
// that quote a dead daemon's log.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   bytes.Buffer
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b.Write(p)
	if over := t.b.Len() - t.max; over > 0 {
		t.b.Next(over)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(t.b.String())
}
