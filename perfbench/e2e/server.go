package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"f90y/perfbench/jobs"
)

// Server is one f90yd process run with its default flags, apart from a
// loopback port chosen by the kernel and, for the durable workload, a
// state directory.
type Server struct {
	cmd    *exec.Cmd
	exited chan error
	log    *os.File
	base   string
	client *http.Client
}

// StartServer launches bin with its files under dir and waits until it
// reports ready. conns bounds the keep-alive connections the client
// opens to it.
func StartServer(ctx context.Context, bin, dir string, durable bool, conns int) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if durable {
		args = append(args, "-state-dir", filepath.Join(dir, "state"))
	}
	log, err := os.Create(filepath.Join(dir, "f90yd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// Should the benchmark die without stopping it, the kernel kills
	// the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start f90yd: %w", err)
	}
	s := &Server{cmd: cmd, exited: make(chan error, 1), log: log, client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
	go func() { s.exited <- cmd.Wait() }()
	if err := s.awaitReady(ctx, addrFile); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

func (s *Server) awaitReady(ctx context.Context, addrFile string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			s.exited <- err
			return fmt.Errorf("f90yd exited during start-up: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if s.base == "" {
			addr, err := os.ReadFile(addrFile)
			if err != nil || len(addr) == 0 {
				continue
			}
			s.base = "http://" + string(addr)
		}
		resp, err := s.client.Get(s.base + "/readyz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
	return fmt.Errorf("f90yd not ready after 30s")
}

// Stop drains the server with SIGTERM, kills it if the drain hangs, and
// waits for the process to exit.
func (s *Server) Stop() error {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("f90yd did not drain within 30s: %v", <-s.exited)
	}
	s.log.Close()
	return err
}

// PeakRSSMB is the server process's peak resident set (VmHWM) so far.
func (s *Server) PeakRSSMB() (float64, error) {
	return PeakRSSMB(strconv.Itoa(s.cmd.Process.Pid))
}

// PeakRSSMB reads VmHWM of /proc/<pid>, in MiB.
func PeakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
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
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// reply is the part of a POST /v1/run response the benchmark checks.
type reply struct {
	Cached bool `json:"cached"`
	Error  any  `json:"error"`
	Result *struct {
		Flops     int64 `json:"flops"`
		NodeCalls int   `json:"node_calls"`
		CommCalls int   `json:"comm_calls"`
		Cycles    struct {
			Host float64 `json:"host"`
			PE   float64 `json:"pe"`
			Comm float64 `json:"comm"`
		} `json:"cycles"`
		Output []string `json:"output"`
	} `json:"result"`
}

// Run submits j with a synchronous POST /v1/run and returns the modeled
// results the server reported and whether it served a cached compile.
// Anything but a 200 with a result is an error.
func (s *Server) Run(ctx context.Context, j jobs.Job) (jobs.Modeled, bool, error) {
	body, err := json.Marshal(map[string]string{"file": j.File, "source": j.Source, "target": j.Target})
	if err != nil {
		return jobs.Modeled{}, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return jobs.Modeled{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return jobs.Modeled{}, false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobs.Modeled{}, false, err
	}
	var r reply
	if err := json.Unmarshal(data, &r); err != nil {
		return jobs.Modeled{}, false, fmt.Errorf("HTTP %d: undecodable body: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || r.Result == nil {
		return jobs.Modeled{}, false, fmt.Errorf("HTTP %d: %v", resp.StatusCode, r.Error)
	}
	res := r.Result
	return jobs.Modeled{
		HostCycles: res.Cycles.Host, PECycles: res.Cycles.PE, CommCycles: res.Cycles.Comm,
		Flops: res.Flops, NodeCalls: res.NodeCalls, CommCalls: res.CommCalls, Output: res.Output,
	}, r.Cached, nil
}

// Statsz is the part of f90yd's /statsz snapshot (f90y-statsz/v1) the
// benchmark reads.
type Statsz struct {
	Schema string `json:"schema"`
	Jobs   struct {
		Admitted  int64 `json:"admitted"`
		Completed int64 `json:"completed"`
	} `json:"jobs"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	// Durability is absent unless the server runs with -state-dir.
	Durability *struct {
		JournalRecords int64 `json:"journal_records"`
		SpillWrites    int64 `json:"spill_writes"`
		DiskCache      struct {
			Writes int64 `json:"writes"`
		} `json:"disk_cache"`
	} `json:"durability"`
}

// ParseStatsz decodes a /statsz body.
func ParseStatsz(data []byte) (Statsz, error) {
	var st Statsz
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("statsz: %w", err)
	}
	if st.Schema != "f90y-statsz/v1" {
		return st, fmt.Errorf("statsz: schema %q, want f90y-statsz/v1", st.Schema)
	}
	return st, nil
}

// Statsz fetches the server's counters.
func (s *Server) Statsz(ctx context.Context) (Statsz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/statsz", nil)
	if err != nil {
		return Statsz{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return Statsz{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return Statsz{}, err
	}
	return ParseStatsz(data)
}
