package main

import (
	"bufio"
	"context"
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

	ifpxq "repro"
	"repro/internal/obs"
)

// buildXqd compiles cmd/xqd from the checkout that holds this benchmark.
func buildXqd(ctx context.Context, repoRoot, outDir string) (string, error) {
	bin := filepath.Join(outDir, "xqd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/xqd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/xqd: %w\n%s", err, out)
	}
	return bin, nil
}

// snapshotStats is what writing a workload's store cost.
type snapshotStats struct {
	saveNs             int64
	xmlBytes, xqsBytes int64
}

// writeStore parses every document and saves its snapshot into dir, the
// way a deployment prepares xqd's -store directory.
func writeStore(dir string, docs []document) (snapshotStats, error) {
	var st snapshotStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	for _, d := range docs {
		doc, err := ifpxq.ParseDocument(d.xml, d.uri)
		if err != nil {
			return st, fmt.Errorf("parse %s: %w", d.uri, err)
		}
		path := filepath.Join(dir, d.uri+".xqs")
		t0 := time.Now()
		if err := ifpxq.SaveSnapshot(path, doc); err != nil {
			return st, fmt.Errorf("snapshot %s: %w", d.uri, err)
		}
		st.saveNs += time.Since(t0).Nanoseconds()
		fi, err := os.Stat(path)
		if err != nil {
			return st, err
		}
		st.xmlBytes += int64(len(d.xml))
		st.xqsBytes += fi.Size()
	}
	return st, nil
}

// xqd is one running server subprocess.
type xqd struct {
	cmd       *exec.Cmd
	base      string // http://127.0.0.1:port
	debugBase string // pprof listener, "" when not started
	log       *os.File
	client    *http.Client
	stopped   bool
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startXqd launches xqd on the store with the workload's flags and waits
// until /healthz answers 200. debug adds the pprof listener the process
// metrics are read from. The caller must call stop.
func startXqd(logPath, bin, storeDir string, flags []string, debug bool) (*xqd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-store", storeDir, "-addr", addr}
	s := &xqd{base: "http://" + addr}
	if debug {
		daddr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args = append(args, "-debug-addr", daddr)
		s.debugBase = "http://" + daddr
	}
	args = append(args, flags...)
	if s.log, err = os.Create(logPath); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	if err := s.cmd.Start(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("start xqd: %w", err)
	}
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		Timeout:   60 * time.Second,
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("xqd not healthy after 15s (see %s): %v", logPath, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the subprocess and waits until it has ended: SIGTERM lets
// xqd drain and close its store, and a process still alive ten seconds
// later is killed.
func (s *xqd) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	s.client.CloseIdleConnections()
	s.log.Close()
}

// scrape reads /metrics into a flat series map.
func (s *xqd) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return obs.ParsePromText(resp.Body)
}

// memStats are the runtime.MemStats fields of the subprocess the harness
// uses, as the pprof heap page prints them ("# TotalAlloc = 123").
type memStats struct {
	totalAlloc, numGC float64
	pauseNs           []float64 // the runtime's ring of the last 256 pauses
}

// pauseNsSince sums the stop-the-world pauses since an earlier reading:
// exactly while the ring still holds them all, otherwise the ring's mean
// times the number of collections.
func (m memStats) pauseNsSince(earlier memStats) float64 {
	cycles := int(m.numGC - earlier.numGC)
	ring := len(m.pauseNs)
	if cycles <= 0 || ring == 0 {
		return 0
	}
	sum := 0.0
	for k := 0; k < min(cycles, ring); k++ {
		// The most recent pause sits at (NumGC+ring-1) % ring.
		sum += m.pauseNs[(int(m.numGC)-1-k+ring*2)%ring]
	}
	if cycles > ring {
		sum *= float64(cycles) / float64(ring)
	}
	return sum
}

func (s *xqd) memStats() (memStats, error) {
	var m memStats
	resp, err := s.client.Get(s.debugBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("heap profile: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || f[0] != "#" || f[2] != "=" {
			continue
		}
		switch f[1] {
		case "TotalAlloc":
			m.totalAlloc, _ = strconv.ParseFloat(f[3], 64)
		case "NumGC":
			m.numGC, _ = strconv.ParseFloat(f[3], 64)
		case "PauseNs":
			for _, tok := range f[3:] {
				v, _ := strconv.ParseFloat(strings.Trim(tok, "[]"), 64)
				m.pauseNs = append(m.pauseNs, v)
			}
		}
	}
	return m, sc.Err()
}

// peakRSSMB reads the subprocess's high-water resident set from /proc.
func (s *xqd) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
