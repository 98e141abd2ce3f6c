package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one bounced process of the system under test, started on a
// free loopback port in its own process group.
type child struct {
	role string
	cmd  *exec.Cmd
	url  string    // http://host:port, parsed from its "listening on" line
	born time.Time // exec time

	mu       sync.Mutex
	tail     []string      // last lines of its log
	listenCh chan string   // receives the address once
	done     chan struct{} // closed once the process has exited and its log is drained
	waitErr  error
	stopping bool // we asked for the exit
}

const logTailLines = 30

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// procSet owns every child of one workload run. An exit nobody asked
// for fails the workload through onEarlyExit with the child's log tail.
type procSet struct {
	bin         string
	onEarlyExit func(error)

	mu   sync.Mutex
	kids []*child
}

// start execs bounced with args plus a free loopback port and waits for
// it to listen. Ports are never fixed: the kernel picks one and the
// child's log says which.
func (ps *procSet) start(ctx context.Context, role string, args ...string) (*child, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(ps.bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	c := &child{role: role, cmd: cmd, listenCh: make(chan string, 1), done: make(chan struct{}), born: time.Now()}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	pw.Close()
	ps.mu.Lock()
	ps.kids = append(ps.kids, c)
	ps.mu.Unlock()

	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.tail = append(c.tail, line)
			if len(c.tail) > logTailLines {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if m := listenRE.FindStringSubmatch(line); m != nil && !announced {
				announced = true
				c.listenCh <- m[1]
			}
		}
		pr.Close()
		err := cmd.Wait()
		c.mu.Lock()
		c.waitErr = err
		asked := c.stopping
		c.mu.Unlock()
		close(c.done)
		if !asked && ps.onEarlyExit != nil {
			ps.onEarlyExit(fmt.Errorf("%s (pid %d) exited early: %v\n%s", role, cmd.Process.Pid, err, c.logTail()))
		}
	}()

	select {
	case addr := <-c.listenCh:
		c.url = "http://" + addr
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", role, c.waitErr, c.logTail())
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("%s did not listen within 30s\n%s", role, c.logTail())
	}
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return "  | " + strings.Join(c.tail, "\n  | ")
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill sends SIGKILL to the child's whole process group and waits until
// it has ended. Safe to call twice.
func (c *child) kill() {
	c.mu.Lock()
	c.stopping = true
	c.mu.Unlock()
	select {
	case <-c.done: // already reaped: its pid may belong to someone else by now
		return
	default:
	}
	// The group id equals the pid because of Setpgid.
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	<-c.done
}

// killAll stops every child still running and waits for each.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	kids := ps.kids
	ps.kids = nil
	ps.mu.Unlock()
	for _, c := range kids {
		c.kill()
	}
}

// live returns the children not yet killed, for CPU and memory sampling.
func (ps *procSet) live() []*child {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var out []*child
	for _, c := range ps.kids {
		select {
		case <-c.done:
		default:
			out = append(out, c)
		}
	}
	return out
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU returns user+system CPU seconds of pid from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime. The command name (field 2) may
// hold spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	st, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime/stime in /proc stat line")
	}
	return float64(ut+st) / clockTicks, nil
}

// procPeakRSS returns VmHWM of pid in MiB from /proc/<pid>/status.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is the load generator's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
