package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"redisgraph/internal/client"
	"redisgraph/internal/resp"
)

// startDeadline bounds exec → first PONG. The largest dataset the harness
// accepts (-scale 14) loads in ≈5 s on a two-core guest; four times that
// means the child is wedged.
const startDeadline = 20 * time.Second

// child is a running redisgraph-server process.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	begin  time.Time // just before exec
	// startup is exec → first PONG with the snapshot loaded.
	startup time.Duration
	exited  chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; nothing else on this host is racing for
// ephemeral ports, and a lost race surfaces as a start-up error, not a hang.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// serverEnv is the child's environment: the caller's, minus any Go runtime
// tuning, plus the fixed GOGC the benchmark is defined at.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GOGC=") || strings.HasPrefix(kv, "GOMAXPROCS=") ||
			strings.HasPrefix(kv, "GOMEMLIMIT=") || strings.HasPrefix(kv, "GODEBUG=") {
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOGC=100")
}

// launchServer execs the server on a free port with the fixed flags and
// returns as soon as the process exists, so the caller can record the child
// before anything slow happens.
func launchServer(bin, snapshot string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	c.cmd = exec.Command(bin, "-addr", c.addr, "-threads", "2", "-snapshot", snapshot)
	c.cmd.Env = serverEnv()
	c.cmd.Stderr = &c.stderr
	// If the harness itself is killed outright, no handler runs; the kernel
	// then kills the child for it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.begin = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// awaitReady polls until the child answers PING, which it only does once the
// snapshot is loaded (server.Start loads before it listens), and records
// exec → first PONG as c.startup.
func (c *child) awaitReady() error {
	for {
		if cl, err := client.Dial(c.addr); err == nil {
			v, err := cl.Do("PING")
			cl.Close()
			if err == nil && v == resp.SimpleString("PONG") {
				c.startup = time.Since(c.begin)
				return nil
			}
		}
		select {
		case <-c.exited:
			return fmt.Errorf("server exited during start-up: %v\n%s", c.cmd.ProcessState, c.stderr.String())
		default:
		}
		if time.Since(c.begin) > startDeadline {
			return fmt.Errorf("server did not answer PING within %s\n%s", startDeadline, c.stderr.String())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop kills the child and waits for it. SIGKILL, not SIGTERM: a graceful
// shutdown would rewrite the snapshot the next start is about to load.
func (c *child) stop() {
	if c == nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.exited
}

// procSample is what the harness reads from /proc/<pid> at a window edge.
type procSample struct {
	cpu     time.Duration // utime + stime
	peakRSS int64         // VmHWM, bytes
}

func (c *child) sample() (procSample, error) {
	pid := c.cmd.Process.Pid
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, fmt.Errorf("server_cpu_ms_per_op and peak_rss_mb need Linux /proc: %w", err)
	}
	ticks, err := parseStatTicks(string(stat))
	if err != nil {
		return s, err
	}
	s.cpu = time.Duration(ticks) * time.Second / time.Duration(clockTicks())
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, fmt.Errorf("reading VmHWM: %w", err)
	}
	if s.peakRSS, err = parseVmHWM(string(status)); err != nil {
		return s, err
	}
	return s, nil
}

// parseStatTicks returns utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line: no ')'")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime and stime are f[11] and f[12].
	if len(f) < 13 {
		return 0, errors.New("malformed /proc stat line: too few fields")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line: utime/stime not numeric")
	}
	return utime + stime, nil
}

func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			break
		}
		return kb << 10, nil
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// clockTicks is the kernel's USER_HZ, the unit of utime/stime. It comes from
// the auxiliary vector (AT_CLKTCK); 100 is the value on every Linux port Go
// supports, so that is the fallback.
func clockTicks() int64 {
	const atClkTck = 17
	auxv, err := os.ReadFile("/proc/self/auxv")
	if err != nil {
		return 100
	}
	for len(auxv) >= 16 {
		key := binary.LittleEndian.Uint64(auxv)
		val := binary.LittleEndian.Uint64(auxv[8:])
		if key == atClkTck && val > 0 {
			return int64(val)
		}
		auxv = auxv[16:]
	}
	return 100
}
