package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// child is one daemon under test, started in its own process group so
// the whole group can be killed on every exit path.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	log   *os.File
}

var (
	childMu  sync.Mutex
	children = map[*child]bool{}
)

// spawn starts bin with args. Its output goes to logDir/<name>.log;
// with pipeStdin the caller gets the write end of its standard input.
func spawn(name, bin, logDir string, pipeStdin bool, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig covers the one path no handler can: the harness itself
	// being killed with SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, log: logf}
	if pipeStdin {
		if c.stdin, err = cmd.StdinPipe(); err != nil {
			logf.Close()
			return nil, err
		}
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop kills the child's process group and waits for it.
func (c *child) stop() {
	childMu.Lock()
	known := children[c]
	delete(children, c)
	childMu.Unlock()
	if !known {
		return
	}
	if c.stdin != nil {
		c.stdin.Close()
	}
	syscall.Kill(-c.pid(), syscall.SIGKILL)
	c.cmd.Wait()
	c.log.Close()
}

// killAllChildren is the last line of defence, run from the signal
// handler and from main's exit path: no relayd may outlive a run.
func killAllChildren() {
	childMu.Lock()
	list := make([]*child, 0, len(children))
	for c := range children {
		list = append(list, c)
	}
	childMu.Unlock()
	for _, c := range list {
		c.stop()
	}
}

// handleSignals kills every child before dying on SIGINT/SIGTERM/SIGHUP.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-ch
		killAllChildren()
		fmt.Fprintf(os.Stderr, "esbench: %v: children killed, exiting\n", s)
		os.Exit(130)
	}()
}

// procSample is one reading of a process's cost so far.
type procSample struct {
	cpuNs        int64 // on-CPU time summed over threads (schedstat, ns)
	userTicks    int64 // utime, clock ticks
	sysTicks     int64 // stime, clock ticks
	ctxSwitches  int64 // voluntary + involuntary, summed over threads
	peakRSSKB    int64 // VmHWM
	currentRSSKB int64 // VmRSS
}

// sampleProc reads /proc/<pid>. CPU time comes from the per-thread
// schedstat files, which count nanoseconds; the user/system split only
// exists in clock ticks (stat), so it is used for the ratio alone.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	base := "/proc/" + strconv.Itoa(pid)
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		tdir := base + "/task/" + t.Name()
		if b, err := os.ReadFile(tdir + "/schedstat"); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				ns, _ := strconv.ParseInt(f[0], 10, 64)
				s.cpuNs += ns
			}
		}
		if b, err := os.ReadFile(tdir + "/status"); err == nil {
			s.ctxSwitches += statusField(string(b), "voluntary_ctxt_switches:") +
				statusField(string(b), "nonvoluntary_ctxt_switches:")
		}
	}
	b, err := os.ReadFile(base + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
		if f := strings.Fields(string(b)[i+1:]); len(f) > 12 {
			s.userTicks, _ = strconv.ParseInt(f[11], 10, 64)
			s.sysTicks, _ = strconv.ParseInt(f[12], 10, 64)
		}
	}
	if s.cpuNs == 0 {
		// Kernel without schedstats: fall back to tick precision.
		s.cpuNs = (s.userTicks + s.sysTicks) * (1e9 / clockTicks)
	}
	if b, err = os.ReadFile(base + "/status"); err != nil {
		return s, err
	}
	s.peakRSSKB = statusField(string(b), "VmHWM:")
	s.currentRSSKB = statusField(string(b), "VmRSS:")
	return s, nil
}

// clockTicks is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTicks = 100

func statusField(status, key string) int64 {
	// Keys are matched at a line start: "voluntary_ctxt_switches:" is
	// also the tail of "nonvoluntary_ctxt_switches:".
	i := strings.Index("\n"+status, "\n"+key)
	if i < 0 {
		return 0
	}
	f := strings.Fields(status[i+len(key):])
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseInt(f[0], 10, 64)
	return v
}

// stolenTicks is the time the hypervisor has kept from this machine's
// CPUs so far, in clock ticks summed over CPUs (the steal column of
// /proc/stat's first line); 0 where the kernel does not account for it.
func stolenTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

// selfCPU is the harness's own CPU time so far, in ns.
func selfCPU() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
