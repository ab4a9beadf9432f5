package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running geoind-server process.
type serverProc struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration // exec to the first 200 from /v1/healthz
	done  chan error
	log   *os.File
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs the server binary on a free loopback port and waits
// until /v1/healthz answers 200.
func startServer(bin, logPath string, args []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	p := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), log: logf}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { p.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := start.Add(60 * time.Second); time.Now().Before(deadline); {
		if resp, err := probe.Get(p.base + "/v1/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.ready = time.Since(start)
				return p, nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err
			logf.Close()
			return nil, fmt.Errorf("server exited before ready (%v); log in %s", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
	}
	p.stop()
	return nil, fmt.Errorf("server not ready after 60s; log in %s", logPath)
}

// stop sends SIGTERM, waits for a graceful exit, and kills the process if
// it has not exited within ten seconds.
func (p *serverProc) stop() error {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("server ignored SIGTERM and was killed")
	}
}

// peakRSSMB reads VmHWM, the peak resident set, of a process.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit is the checkout's commit, or "unknown" outside a git work tree.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+root+"/..")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
