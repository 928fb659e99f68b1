package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prionn/internal/cluster"
	"prionn/internal/pilot"
	"prionn/internal/serve"
)

// now and since are the benchmark's only clock reads.
func now() time.Time {
	//prionnvet:ignore time-dep -- measuring wall-clock time is what a benchmark is for; every timing in this package flows from here
	return time.Now()
}

func since(t time.Time) time.Duration {
	//prionnvet:ignore time-dep -- measuring wall-clock time is what a benchmark is for; every timing in this package flows from here
	return time.Since(t)
}

// buildDaemon compiles the real cmd/prionnd into dir and returns the
// binary's path.
func buildDaemon(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "prionnd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "prionn/cmd/prionnd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build prionn/cmd/prionnd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running prionnd child.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port

	logMu sync.Mutex
	log   []string // stderr, kept for failure reports

	logDone chan struct{}
	ctl     *http.Client // control plane: /readyz, /stats, /complete
}

// startDaemon execs prionnd on an ephemeral loopback port and waits for
// its "serving on" line and a 200 from /readyz. GOMAXPROCS is set to
// procs in the child; the caller owns stop().
func startDaemon(ctx context.Context, bin string, procs int, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{}), ctl: &http.Client{Timeout: 10 * time.Second}}
	addrCh := make(chan string, 1)
	//prionnvet:ignore naked-goroutine -- joined via d.logDone, closed when the child's stderr ends and received in stop()
	go d.scanLog(stderr, addrCh)

	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("prionnd exited before serving:\n%s", d.logTail())
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("prionnd did not start serving within 60s:\n%s", d.logTail())
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	for deadline := now().Add(10 * time.Second); ; {
		resp, err := d.ctl.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("prionnd never became ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// scanLog keeps the child's stderr and reports the listen address.
func (d *daemon) scanLog(r io.Reader, addrCh chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		d.log = append(d.log, line)
		d.logMu.Unlock()
		if _, addr, ok := strings.Cut(line, "serving on "); ok {
			select {
			case addrCh <- strings.TrimSpace(addr):
			default:
			}
		}
	}
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	l := d.log
	if len(l) > 20 {
		l = l[len(l)-20:]
	}
	return strings.Join(l, "\n")
}

// stop reaps the child: SIGINT for a graceful drain, kill after 5 s.
// It always waits for the process and its log reader to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGINT) // already exited is fine: Wait below reaps it
	kill := time.AfterFunc(5*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.logDone      // stderr closes when the child exits
	_ = d.cmd.Wait() // exit status of a signalled child carries nothing to report
	kill.Stop()
	d.ctl.CloseIdleConnections()
}

// statsSnap is one GET /stats, normalised over the two engine shapes: a
// single server is one inference loop, a cluster one per replica.
type statsSnap struct {
	at       time.Time
	loops    []serve.Snapshot
	cluster  *cluster.Snapshot
	pipeline *pilot.Status
}

func parseStats(raw []byte) (statsSnap, error) {
	var probe struct {
		Replicas json.RawMessage `json:"replicas"`
		Pipeline *pilot.Status   `json:"pipeline"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return statsSnap{}, fmt.Errorf("decoding /stats: %w", err)
	}
	sn := statsSnap{pipeline: probe.Pipeline}
	if probe.Replicas == nil {
		var s serve.Snapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			return statsSnap{}, fmt.Errorf("decoding single-server /stats: %w", err)
		}
		sn.loops = []serve.Snapshot{s}
		return sn, nil
	}
	var c cluster.Snapshot
	if err := json.Unmarshal(raw, &c); err != nil {
		return statsSnap{}, fmt.Errorf("decoding cluster /stats: %w", err)
	}
	sn.cluster = &c
	for _, r := range c.Replicas {
		sn.loops = append(sn.loops, r.Serve)
	}
	return sn, nil
}

func (d *daemon) stats() (statsSnap, error) {
	resp, err := d.ctl.Get(d.base + "/stats")
	if err != nil {
		return statsSnap{}, err
	}
	defer func() { _ = resp.Body.Close() }() // read-only
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return statsSnap{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return statsSnap{}, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	sn, err := parseStats(raw)
	sn.at = now()
	return sn, err
}

// cpuTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every supported architecture.
const cpuTicksPerSecond = 100

// cpuTime returns the child's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(raw))
}

func parseProcStat(s string) (time.Duration, error) {
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unexpected /proc/<pid>/stat layout")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unexpected /proc/<pid>/stat CPU fields")
	}
	return time.Duration(ut+st) * time.Second / cpuTicksPerSecond, nil
}

// peakRSSMB returns the child's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// hostInfo is what a result needs to be compared against another host's.
type hostInfo struct {
	NProc            int      `json:"nproc"`
	GeneratorProcs   int      `json:"gomaxprocs_generator"`
	DaemonProcs      int      `json:"gomaxprocs_prionnd"`
	CPUModel         string   `json:"cpu_model"`
	CPUFlags         []string `json:"cpu_flags"` // the ones that pick asm kernel vs Go twin
	GoVersion        string   `json:"go_version"`
	GOOS, GOARCH     string
	KernelSelectNote string `json:"kernel_select_note"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GeneratorProcs: 1, DaemonProcs: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		KernelSelectNote: "avx+fma select the f32 asm micro-kernel, avx512f+avx512vl+avx512_vnni the int8 one; without them the pure-Go twins ran",
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return h
	}
	for _, line := range strings.Split(string(raw), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if h.CPUModel == "" {
				h.CPUModel = strings.TrimSpace(v)
			}
		case "flags":
			if h.CPUFlags == nil {
				for _, f := range strings.Fields(v) {
					if f == "avx" || f == "avx2" || f == "fma" || f == "avx512f" || f == "avx512vl" || f == "avx512_vnni" {
						h.CPUFlags = append(h.CPUFlags, f)
					}
				}
			}
		}
	}
	return h
}
