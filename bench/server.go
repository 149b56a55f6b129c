package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// The tdserve child process: built from the checkout, started on a loopback
// port the benchmark picks, and killed and reaped on every exit path.

// buildServer compiles cmd/tdserve of the repo at root into dir.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "tdserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tdserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tdserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running tdserve.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	// exited is closed once the child has been reaped, whoever killed it.
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the child binds it, so startServer retries on the (rare) race.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

const (
	readyTimeout = 15 * time.Second
	readyPoll    = 2 * time.Millisecond
	startTries   = 3
)

// startServer launches bin with its default flags on a free loopback port,
// GOMAXPROCS set explicitly, stderr captured to logPath, and returns once
// GET /v1/deployments answers.
func startServer(ctx context.Context, bin, logPath string, gomaxprocs int, hc *http.Client) (*server, error) {
	var lastErr error
	for try := 0; try < startTries; try++ {
		s, err := launch(bin, logPath, gomaxprocs)
		if err != nil {
			return nil, err
		}
		if lastErr = s.waitReady(ctx, hc); lastErr == nil {
			return s, nil
		}
		s.stop()
		if ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("tdserve did not become ready (log: %s): %w", logPath, lastErr)
}

func launch(bin, logPath string, gomaxprocs int) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	// Not CommandContext: stop() is the one place the child is killed and
	// reaped, so an exit is never observed twice.
	cmd := exec.Command(bin, "-addr", addr)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("start tdserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logFile, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls the list endpoint until it answers, the child dies or the
// deadline passes.
func (s *server) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/deployments", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return errors.New("tdserve exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(readyPoll):
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
	}
}

// dead reports whether the child has exited.
func (s *server) dead() bool {
	select {
	case <-s.exited:
		return true
	default:
		return false
	}
}

// stop kills the child and waits until it has been reaped. Idempotent.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // already exited: nothing to kill
	<-s.exited
	s.log.Close()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100 on
// every Linux platform Go runs on.
const clockTick = 100

// cpuTime returns the child's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseProcStat(string(data))
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// parseProcStat extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (int64, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(line[end+1:]) // fields[0] is field 3
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, err
	}
	return utime + stime, nil
}

// peakRSSMB returns the child's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// parseVmHWM extracts "VmHWM:  12345 kB" from a /proc/<pid>/status dump.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) != 2 || string(f[1]) != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
