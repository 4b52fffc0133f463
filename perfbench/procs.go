package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process the benchmark started: a rhythmd server or
// worker, or the paper-batch child. Its output is drained continuously;
// the first line matching the ready pattern reports its address.
type proc struct {
	role string
	args []string
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last lines of output, for error reports
	done chan struct{}
}

const procTailLines = 20

// startProc spawns bin with args and waits until a line of its stdout
// matches ready, whose first submatch is the address it serves on.
func startProc(role, bin string, args []string, ready *regexp.Regexp, timeout time.Duration) (*proc, error) {
	p := &proc{role: role, args: args, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	// A child must not outlive the benchmark, even one killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stderr = &tailWriter{p: p}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 4<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.keep(line)
			if m := ready.FindStringSubmatch(line); !sent && m != nil {
				addrCh <- m[1]
				sent = true
			}
		}
		// Keep draining whatever the scanner gave up on, so the child
		// never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
	case <-time.After(timeout):
	}
	p.stop()
	return nil, fmt.Errorf("%s did not come up: %s", role, p.lastLines())
}

func (p *proc) keep(line string) {
	p.mu.Lock()
	p.tail = append(p.tail, line)
	if len(p.tail) > procTailLines {
		p.tail = p.tail[1:]
	}
	p.mu.Unlock()
}

func (p *proc) lastLines() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop kills the process and waits for it and its output drain to end.
// Nothing the benchmark reads survives the process, so it needs no
// graceful drain.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.done
	_ = p.cmd.Wait()
}

// tailWriter feeds a child's stderr lines into its tail.
type tailWriter struct {
	p   *proc
	buf []byte
}

func (w *tailWriter) Write(b []byte) (int, error) {
	w.buf = append(w.buf, b...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			break
		}
		w.p.keep(string(w.buf[:i]))
		w.buf = w.buf[i+1:]
	}
	return len(b), nil
}

// clockTicks is the unit of /proc/<pid>/stat CPU times (USER_HZ, which
// Linux fixes at 100 for user space).
const clockTicks = 100

// cpuSeconds reads the process's user plus system CPU time.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.role)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.role)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.role)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB reads the process's VmHWM in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	return readPeakRSSMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid), p.role)
}

// readPeakRSSMB reads VmHWM, in MiB, from a /proc status file.
func readPeakRSSMB(path, role string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: malformed VmHWM %q", role, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", role)
}

// wait lets the process run to its end, killing it after timeout.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.done:
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		_ = p.cmd.Wait()
		return fmt.Errorf("%s: killed after %v", p.role, timeout)
	}
	return p.cmd.Wait()
}

// lineWithPrefix returns the last kept output line starting with prefix.
func (p *proc) lineWithPrefix(prefix string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.tail) - 1; i >= 0; i-- {
		if strings.HasPrefix(p.tail[i], prefix) {
			return p.tail[i]
		}
	}
	return ""
}

// freePort reserves a loopback port for a listener the child opens
// itself (rhythmd's -pprof side listener does not report its port).
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// hostTicks is one /proc/stat reading.
type hostTicks struct{ total, steal int64 }

// stealDelta is one measurement unit's stolen and total host CPU ticks.
type stealDelta struct{ steal, total int64 }

func (d stealDelta) share() float64 { return ratio(float64(d.steal), float64(d.total)) }

// stealDeltas turns consecutive readings into per-interval deltas. An
// interval with a failed reading counts as empty.
func stealDeltas(ts []hostTicks) []stealDelta {
	var out []stealDelta
	for i := 1; i < len(ts); i++ {
		a, b := ts[i-1], ts[i]
		if a.total == 0 || b.total == 0 {
			out = append(out, stealDelta{})
			continue
		}
		out = append(out, stealDelta{b.steal - a.steal, b.total - a.total})
	}
	return out
}

func readHostTicks() hostTicks {
	total, steal, err := cpuTicks()
	if err != nil {
		return hostTicks{}
	}
	return hostTicks{total, steal}
}

// cpuTicks reads the host's total and stolen CPU ticks from /proc/stat.
// Steal is time the hypervisor gave the machine's CPUs to other guests;
// on a shared host it is the main source of run-to-run noise.
func cpuTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("malformed /proc/stat")
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}
