package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the webcache module the benchmark measures: the nearest
// ancestor of the working directory holding its go.mod and cmd/proxy.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module webcache\n")) {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "proxy")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no webcache module (go.mod + cmd/proxy) above the working directory")
		}
		dir = parent
	}
}

// buildProxy compiles cmd/proxy from source into outDir and returns the
// binary's path and the build time.
func buildProxy(ctx context.Context, root, outDir string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "proxy"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/proxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/proxy: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the child binds it; startProxy notices a lost race
// because the child exits instead of becoming ready.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// child is a running cmd/proxy process.
type child struct {
	cmd    *exec.Cmd
	addr   string // traffic listener
	admin  string // admin listener, "" unless started with one
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

const readyTimeout = 10 * time.Second

// startProxy starts the binary on ephemeral ports with its default flags
// plus the given ones, and returns once it accepts connections. The
// child runs in its own process group and is sent SIGKILL if the
// benchmark dies without reaching close (Pdeathsig follows the thread
// that forked; the Go runtime does not retire threads, so it fires only
// when the process goes).
func startProxy(ctx context.Context, bin string, withAdmin bool, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	args = append([]string{"-listen", c.addr}, args...)
	if withAdmin {
		aport, err := freePort()
		if err != nil {
			return nil, err
		}
		c.admin = "127.0.0.1:" + strconv.Itoa(aport)
		args = append(args, "-admin", c.admin)
	}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()

	deadline := time.Now().Add(readyTimeout)
	for _, addr := range []string{c.addr, c.admin} {
		if addr == "" {
			continue
		}
		for {
			conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			select {
			case <-c.exited:
				// Also the lost-port-race case: whoever holds the port
				// now is not our child, so never talk to it.
				return nil, fmt.Errorf("proxy exited before accepting on %s:\n%s", addr, c.stderr.String())
			case <-ctx.Done():
				c.close()
				return nil, ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("proxy not accepting on %s after %v:\n%s", addr, readyTimeout, c.stderr.String())
			}
		}
	}
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// close kills the child's process group and waits until it has ended.
func (c *child) close() {
	syscall.Kill(-c.pid(), syscall.SIGKILL) // ESRCH once it is gone
	<-c.exited
}

// procSample is one reading of a process's /proc entries.
type procSample struct {
	userSec, sysSec float64
	hwmMB, rssMB    float64
	threads         int
	ctxsw           int64 // voluntary + involuntary, summed over threads
}

// userHz is the unit of utime/stime in /proc/<pid>/stat; it is 100 on
// every Linux architecture Go runs on.
const userHz = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return s, fmt.Errorf("%s/stat: unexpected format", dir)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("%s/stat: unexpected utime/stime", dir)
	}
	s.userSec, s.sysSec = ut/userHz, st/userHz

	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return s, err
	}
	s.hwmMB = statusField(status, "VmHWM:") / 1e3 // kB → MB
	s.rssMB = statusField(status, "VmRSS:") / 1e3
	s.threads = int(statusField(status, "Threads:"))
	tasks, err := filepath.Glob(dir + "/task/*/status")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between Glob and ReadFile
		}
		s.ctxsw += int64(statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:"))
	}
	return s, nil
}

// statusField returns the number after a line's key in a /proc status
// file, 0 when the key is missing.
func statusField(status []byte, key string) float64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
