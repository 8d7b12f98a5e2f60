package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildServer compiles cmd/batserve once, before any workload runs, so the
// HTTP leg measures the real binary and no build time lands in a metric.
func buildServer(repoRoot, outDir string) (string, error) {
	bin := filepath.Join(outDir, "batserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/batserve")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/batserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is a running batserve subprocess on a loopback port.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	client *http.Client
	exited chan error // receives cmd.Wait's result once
}

// startServer execs batserve on a free loopback port and returns once /info
// answers 200; the elapsed time is the server's start-up cost. The port is
// found by binding and releasing it, so another process can take it first:
// a batserve that exits before answering is started again on a new port.
func startServer(bin, dir, base string, args []string, clients int) (*server, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var s *server
		var took time.Duration
		if s, took, err = startServerOnce(bin, dir, base, args, clients); err == nil {
			return s, took, nil
		}
	}
	return nil, 0, err
}

func startServerOnce(bin, dir, base string, args []string, clients int) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{url: "http://" + addr, exited: make(chan error, 1), client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
		Timeout:   60 * time.Second,
	}}
	argv := append([]string{"-in", dir, "-name", base, "-addr", addr}, args...)
	s.cmd = exec.Command(bin, argv...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	for {
		resp, err := s.client.Get(s.url + "/info")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case werr := <-s.exited:
			return nil, 0, fmt.Errorf("batserve exited before answering /info: %v\n%s", werr, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 20*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("batserve did not answer /info within 20s: %v\n%s", err, s.stderr.String())
		}
	}
}

// stop asks batserve to drain and exit, waits for it, and kills it if it
// does not go within five seconds.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		return err
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		return <-s.exited
	}
}

// request is one GET /points with its oracle expectation.
type request struct {
	kind   string
	query  string
	stride int
	want   bracket
}

// fetch performs req and returns its latency (send to last body byte), the
// body size and the decoded result. A non-200 status, a torn body or a
// trailer other than "complete" is an error.
func (s *server) fetch(req request, buf *bytes.Buffer) (time.Duration, result, error) {
	start := time.Now()
	resp, err := s.client.Get(s.url + "/points?" + req.query)
	if err != nil {
		return 0, result{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return lat, result{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, result{}, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	body := buf.Bytes()
	if len(body)%req.stride != 0 {
		return lat, result{}, fmt.Errorf("body of %d bytes is not a multiple of stride %d", len(body), req.stride)
	}
	if st := resp.Trailer.Get("X-Batserve-Status"); len(body) > 0 && st != "complete" {
		return lat, result{}, fmt.Errorf("X-Batserve-Status trailer = %q", st)
	}
	var got result
	for off := 0; off < len(body); off += req.stride {
		got.add(math.Float32frombits(binary.LittleEndian.Uint32(body[off:])),
			math.Float32frombits(binary.LittleEndian.Uint32(body[off+4:])),
			math.Float32frombits(binary.LittleEndian.Uint32(body[off+8:])))
	}
	return lat, got, nil
}

// passResult is what one closed-loop pass over a request list produced.
type passResult struct {
	wall      time.Duration
	points    int64
	bytes     int64
	latencies []float64 // ms, one per request
	failed    int
	firstErr  error
}

// pass drives reqs through `clients` closed-loop connections: each client
// sends its next request only after the previous reply is fully read and
// checked.
func (s *server) pass(reqs []request, clients int, tr *tracer, parent, tripID int) passResult {
	var next atomic.Int64
	var mu sync.Mutex
	res := passResult{latencies: make([]float64, 0, len(reqs))}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				req := reqs[i]
				sp := tr.begin("batserve:"+req.kind, parent, tripID, lane)
				lat, got, err := s.fetch(req, &buf)
				tr.end(sp)
				if err == nil && !req.want.matches(got) {
					err = fmt.Errorf("oracle mismatch on %s?%s: got %+v", req.kind, req.query, got)
				}
				mu.Lock()
				res.latencies = append(res.latencies, float64(lat)/1e6)
				res.points += got.Count
				res.bytes += got.Count * int64(req.stride)
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// scrape returns the value of a counter on batserve's /metrics page, summed
// over its label sets (0 when absent).
func (s *server) scrape(name string) (float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
			total += v
		}
	}
	return total, nil
}
