package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// Process hygiene: every child this program starts is registered here,
// so that one call kills and reaps them all on every exit path, and
// every temp dir is removed with them.
type janitor struct {
	mu    sync.Mutex
	procs []*daemon
	dirs  []string
}

func (j *janitor) addProc(d *daemon) {
	j.mu.Lock()
	j.procs = append(j.procs, d)
	j.mu.Unlock()
}

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	j.dirs = append(j.dirs, dir)
	j.mu.Unlock()
}

// cleanup kills and reaps every child, then removes every temp dir. It
// is idempotent: the signal handler and the normal exit path may both
// reach it.
func (j *janitor) cleanup() {
	j.mu.Lock()
	procs, dirs := j.procs, j.dirs
	j.procs, j.dirs = nil, nil
	j.mu.Unlock()
	for _, d := range procs {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// portAllocator hands out unused loopback ports by binding :0. A port is
// released before the daemon binds it, so the kernel may offer it again
// to the next caller; the allocator remembers what it has handed out and
// asks again. Nothing else on the host races for ephemeral loopback
// ports during a run.
type portAllocator struct {
	mu    sync.Mutex
	given map[int]bool
}

func (a *portAllocator) next() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.given == nil {
		a.given = make(map[int]bool)
	}
	for {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		port := l.Addr().(*net.TCPAddr).Port
		if err := l.Close(); err != nil {
			return 0, err
		}
		if !a.given[port] {
			a.given[port] = true
			return port, nil
		}
	}
}

// daemon is one child process: an endpointd or a routerd.
type daemon struct {
	name     string // log label, e.g. "endpointd-1"
	bin      string
	args     []string
	url      string // service base URL
	debugURL string // -debug-addr base URL
	logPath  string

	cmd    *exec.Cmd
	exited chan struct{}
}

// start execs the daemon with stderr appended to its log file and
// returns once exec has happened; ready waits for it to serve.
func (d *daemon) start() (time.Time, error) {
	logf, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return time.Time{}, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(d.bin, d.args...)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	// Own process group: a terminal's Ctrl-C reaches this program only,
	// which then shuts its children down itself, in order.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	began := time.Now()
	if err := d.cmd.Start(); err != nil {
		return time.Time{}, fmt.Errorf("%s: %w", d.name, err)
	}
	d.exited = make(chan struct{})
	go func(cmd *exec.Cmd, exited chan struct{}) {
		cmd.Wait()
		close(exited)
	}(d.cmd, d.exited)
	return began, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// ready polls GET /status until it answers 200 and accept reports the
// decoded body good, the daemon exits, or the deadline passes. It returns
// the time of the first good answer.
func (d *daemon) ready(client *http.Client, within time.Duration, accept func(status []byte) bool) (time.Time, error) {
	deadline := time.Now().Add(within)
	for {
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("%s exited during boot", d.name)
		default:
		}
		resp, err := client.Get(d.url + "/status")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (accept == nil || accept(body)) {
				return time.Now(), nil
			}
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("%s not ready within %v (last error: %v)", d.name, within, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped: the crash
// the recovery checks are about. Safe on a daemon that never started or
// already exited.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// tailLog returns the last part of the daemon's log, for failure reports.
func (d *daemon) tailLog() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	const keep = 4 << 10
	if len(b) > keep {
		b = b[len(b)-keep:]
	}
	return string(b)
}

// endpointStatus is the part of endpointd's /status the checks read.
type endpointStatus struct {
	Stats struct {
		Accepted   uint64
		Duplicates uint64
		Stale      uint64
	} `json:"stats"`
	Shed    uint64 `json:"shed"`
	Storage struct {
		Points   int   `json:"points"`
		WALBytes int64 `json:"wal_bytes"`
	} `json:"storage"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, firstLine(body))
	}
	return json.Unmarshal(body, v)
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}

// buildDaemons compiles cmd/endpointd and cmd/routerd from the tree this
// program sits in into binDir.
func buildDaemons(repoRoot, binDir string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/endpointd", "./cmd/routerd")
	cmd.Dir = repoRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("building daemons in %s: %v\n%s", repoRoot, err, out)
	}
	return time.Since(start), nil
}
