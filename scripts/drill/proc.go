package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"syscall"
	"time"
)

// child is one bounced process: started in its own process group,
// logging to <name>.log in the work dir, listening on url.
type child struct {
	name   string
	args   []string // everything after -addr, so a restart can repeat them
	cmd    *exec.Cmd
	addr   string        // host:port, read from its "listening on" line
	url    string        // http://addr
	done   chan struct{} // closed once the process has been reaped
	killed atomic.Bool   // we sent the SIGKILL
}

// procs owns every child of one drill. A child that exits without
// being killed cancels ctx with the reason, which ends every wait.
type procs struct {
	ctx  context.Context
	fail context.CancelCauseFunc
	bin  string // the bounced binary
	dir  string // work dir: logs, data dirs, reports
	kids []*child
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// start execs bounced on addr (127.0.0.1:0 lets the kernel pick the
// port) and returns once the child's log says where it listens.
func (ps *procs) start(name, addr string, args ...string) (*child, error) {
	logPath := filepath.Join(ps.dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	c := &child{name: name, args: args, done: make(chan struct{})}
	c.cmd = exec.Command(ps.bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.kids = append(ps.kids, c)
	go func() {
		err := c.cmd.Wait()
		if !c.killed.Load() {
			ps.fail(fmt.Errorf("%s exited on its own (%v), see %s", name, err, logPath))
		}
		close(c.done)
	}()
	err = ps.waitFor(name+" to listen", func() (bool, error) {
		b, err := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(b); m != nil {
			c.addr = string(m[1])
		}
		return c.addr != "", err
	})
	c.url = "http://" + c.addr
	return c, err
}

// kill SIGKILLs the child's whole process group and waits until it has
// been reaped. Safe to call twice.
func (c *child) kill() {
	c.killed.Store(true)
	select {
	case <-c.done: // already reaped: its pid may belong to someone else by now
		return
	default:
	}
	_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // pgid == pid because of Setpgid
	<-c.done
}

func (ps *procs) killAll() {
	for _, c := range ps.kids {
		c.kill()
	}
}

// waitFor polls cond every 20ms until it holds, fails, 30s pass, or the
// drill is cancelled (signal, deadline, a child dying on its own).
func (ps *procs) waitFor(what string, cond func() (bool, error)) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok, err := cond()
		if err != nil {
			return fmt.Errorf("waiting for %s: %w", what, err)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("waiting for %s: still not so after 30s", what)
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ps.ctx.Done():
			return fmt.Errorf("waiting for %s: %w", what, context.Cause(ps.ctx))
		}
	}
}

var httpc = &http.Client{Timeout: 30 * time.Second}

// get fetches url and insists on a 200.
func get(url string) ([]byte, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	return b, nil
}

func getJSON(url string, v any) error {
	b, err := get(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
