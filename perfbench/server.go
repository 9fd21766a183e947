package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multibus/internal/cluster"
)

// portPairs are the fixed loopback ports the instances listen on. The
// cluster ring hashes peer URLs, so fixed ports keep the ring — and the
// share of forwarded keys — the same on every run; the first pair whose
// ports are both free is used.
var portPairs = [][2]int{{21871, 21872}, {23917, 23918}, {25307, 25308}, {27743, 27744}}

// instanceURLs returns the base URLs of n instances on the first free
// port pair. With two, the first — the one the load goes to — is the
// peer owning the larger share of the ring.
func instanceURLs(n int) ([]string, error) {
	for _, pair := range portPairs {
		free := true
		for _, p := range pair[:n] {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				free = false
				break
			}
			ln.Close()
		}
		if free {
			urls := make([]string, n)
			for k := range urls {
				urls[k] = fmt.Sprintf("http://127.0.0.1:%d", pair[k])
			}
			if n > 1 {
				ring, err := cluster.NewRing(urls, 0)
				if err != nil {
					return nil, err
				}
				if ring.Share(urls[1]) > ring.Share(urls[0]) {
					urls[0], urls[1] = urls[1], urls[0]
				}
			}
			return urls, nil
		}
	}
	return nil, errors.New("no free loopback port pair for mbserve")
}

// instance is one running mbserve process.
type instance struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait has returned
	log  *os.File
}

// startInstances spawns one mbserve per URL; with more than one URL
// they form a -peers cluster. The instances start one after the other,
// each once the previous one answers GET /healthz, as in a rolling
// start: spawned together, which peer's first handoff pull finds the
// other still down — and pays the peer client's retry backoff — would be
// a coin toss, and set-up time with it. Logs go to
// logDir/mbserve-<k>.log.
func startInstances(ctx context.Context, bin, logDir string, urls []string) ([]*instance, error) {
	var insts []*instance
	for k, url := range urls {
		if k > 0 {
			if err := poll(ctx, insts[k-1], "/healthz"); err != nil {
				stopInstances(insts)
				return nil, err
			}
		}
		args := []string{"-addr", strings.TrimPrefix(url, "http://")}
		if len(urls) > 1 {
			args = append(args, "-self", url, "-peers", strings.Join(urls, ","))
		}
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("mbserve-%d.log", k)))
		if err != nil {
			stopInstances(insts)
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The kernel kills the server if the benchmark dies first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			stopInstances(insts)
			return nil, fmt.Errorf("start mbserve: %w", err)
		}
		in := &instance{url: url, cmd: cmd, done: make(chan struct{}), log: logf}
		go func() {
			_ = in.cmd.Wait() // SIGKILL is how every instance ends
			close(in.done)
		}()
		insts = append(insts, in)
	}
	return insts, nil
}

// stopInstances kills every instance and waits until each has exited.
func stopInstances(insts []*instance) {
	for _, in := range insts {
		_ = in.cmd.Process.Kill() // fails only if it already exited
	}
	for _, in := range insts {
		<-in.done
		in.log.Close()
	}
}

// waitReady polls GET /readyz on every instance until each answers 200.
func waitReady(ctx context.Context, insts []*instance) error {
	for _, in := range insts {
		if err := poll(ctx, in, "/readyz"); err != nil {
			return err
		}
	}
	return nil
}

// poll GETs path on an instance every 2 ms until it answers 200.
func poll(ctx context.Context, in *instance, path string) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case <-in.done:
			return fmt.Errorf("mbserve %s exited before it was ready (see its log)", in.url)
		default:
		}
		resp, err := client.Get(in.url + path)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("mbserve %s: GET %s: %w", in.url, path, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape fetches an instance's /metrics exposition.
func scrape(url string) ([]sample, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; fields
	// resume after the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostCPU is the aggregate "cpu" line of /proc/stat, in ticks.
type hostCPU struct{ total, steal int64 }

func readHostCPU() (hostCPU, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 9 || f[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal
		var h hostCPU
		for k := 1; k <= 8; k++ {
			v, err := strconv.ParseInt(f[k], 10, 64)
			if err != nil {
				return hostCPU{}, err
			}
			h.total += v
		}
		h.steal, _ = strconv.ParseInt(f[8], 10, 64) // parsed above
		return h, nil
	}
	if err := sc.Err(); err != nil {
		return hostCPU{}, err
	}
	return hostCPU{}, errors.New("no cpu line in /proc/stat")
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTick is the servers' summed CPU time, and the host's CPU
// counters, at one instant.
type cpuTick struct {
	at   time.Time
	cpu  time.Duration
	host hostCPU
}

// readTick reads the instances' summed CPU time and the host counters.
func readTick(insts []*instance) (cpuTick, error) {
	t := cpuTick{at: time.Now()}
	var err error
	if t.host, err = readHostCPU(); err != nil {
		return t, err
	}
	for _, in := range insts {
		c, err := procCPU(in.cmd.Process.Pid)
		if err != nil {
			return t, err
		}
		t.cpu += c
	}
	return t, nil
}

// sampleCPU extends ticks with a reading every second, and one more
// when stop is closed.
func sampleCPU(insts []*instance, ticks []cpuTick, stop <-chan struct{}) ([]cpuTick, error) {
	tk := time.NewTicker(time.Second)
	defer tk.Stop()
	for {
		var last bool
		select {
		case <-tk.C:
		case <-stop:
			last = true
		}
		t, err := readTick(insts)
		if err != nil {
			return nil, err
		}
		ticks = append(ticks, t)
		if last {
			return ticks, nil
		}
	}
}
