package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"smiler/internal/server"
)

// serverProc is one smiler-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	log    string
	done   chan struct{}
	err    error
	client *client
}

// startServer launches the server binary on a free loopback port with
// the workload's flags and waits until /readyz answers 200.
func startServer(bin string, w workload, dir string) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr}
	if w.wal {
		args = append(args, "-wal-dir", filepath.Join(dir, "wal"), "-fsync", "interval")
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	sp := &serverProc{cmd: cmd, log: logPath, done: make(chan struct{}), client: newClient("http://" + addr)}
	go func() {
		sp.err = cmd.Wait()
		logf.Close()
		close(sp.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _, err := sp.client.call(http.MethodGet, "/readyz", nil)
		if err == nil && st == http.StatusOK {
			return sp, nil
		}
		select {
		case <-sp.done:
			return nil, fmt.Errorf("server exited during start (%v); log: %s", sp.err, tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			sp.stop()
			return nil, fmt.Errorf("server not ready after 30s; log: %s", tail(logPath))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server drains and exits), escalating to
// SIGKILL after 20s, and waits for the process to end.
func (sp *serverProc) stop() {
	sp.client.close()
	_ = sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.done:
	case <-time.After(20 * time.Second):
		_ = sp.cmd.Process.Kill()
		<-sp.done
	}
}

func (sp *serverProc) pid() int { return sp.cmd.Process.Pid }

// cpuSeconds reads the server's user+system CPU time.
func (sp *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", sp.pid()))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// peakRSSMB reads the server's peak resident set size.
func (sp *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", sp.pid()))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func (sp *serverProc) scrape() (promSamples, error) {
	st, b, err := sp.client.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", st)
	}
	return parseProm(string(b)), nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func tail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// setupPopulation registers every sensor of the workload and runs the
// warm-up pass (one observe per sensor, then one forecast per read
// sensor), over `connections` parallel requests. The warm-up observes
// the first stream value of every sensor, so every round of set-up
// leaves the server in the same state.
func setupPopulation(c *client, g *generator) (attempted int64, err error) {
	w := g.w
	bodies := make([][]byte, w.sensors)
	for i := range bodies {
		b, err := json.Marshal(server.AddSensorRequest{ID: sensorID(i), History: g.historyOf(i)})
		if err != nil {
			return 0, err
		}
		bodies[i] = b
	}
	if err := parallel(w.sensors, func(i int) error {
		st, b, err := c.call(http.MethodPost, "/sensors", bodies[i])
		if err != nil {
			return err
		}
		if st != http.StatusCreated {
			return fmt.Errorf("register %s: status %d: %s", sensorID(i), st, b)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	if err := parallel(w.sensors, func(i int) error {
		return okStatus(c.observe(sensorID(i), g.series[i].at(w.history)))
	}); err != nil {
		return 0, err
	}
	if err := c.waitApplied(); err != nil {
		return 0, err
	}
	reads := w.readSensors()
	if err := parallel(len(reads), func(i int) error {
		return okStatus(c.forecast(sensorID(reads[i])))
	}); err != nil {
		return 0, err
	}
	return int64(2*w.sensors + len(reads)), nil
}

func okStatus(st int, b []byte, err error) error {
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("status %d: %s", st, b)
	}
	return nil
}

// parallel runs fn(0..n-1) on `connections` workers and returns the
// first error.
func parallel(n int, fn func(i int) error) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
