package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multihonest/internal/oracle"
	"multihonest/internal/telemetry"
)

// conns is the served workloads' client connection count: one per core
// of the machine the benchmark was sized on.
const conns = 2

// server is a running cmd/serve child.
type server struct {
	*child
	addr string
}

// startServer execs cmd/serve on a free loopback port the kernel picks
// and waits until it logs that it is listening (it is ready by then).
func startServer(env *env, cache int) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if cache > 0 {
		args = append(args, "-cache", strconv.Itoa(cache))
	}
	c, err := startChild(env.serveBin, filepath.Join(env.work, "serve.log"), args...)
	if err != nil {
		return nil, err
	}
	line, err := c.waitLog("msg=listening", 30*time.Second)
	if err != nil {
		c.stop()
		return nil, err
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return &server{child: c, addr: a}, nil
		}
	}
	c.stop()
	return nil, fmt.Errorf("no addr in %q", line)
}

// clientConn is one keep-alive HTTP/1.1 connection speaking pre-rendered
// requests, so the client's own cost per op stays small and fixed.
type clientConn struct {
	nc   net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*clientConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &clientConn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10)}, nil
}

// get sends one request, reads the whole response and fails unless it is
// 200 OK. The body aliases the connection's buffer until the next call.
func (c *clientConn) get(wire []byte) ([]byte, error) {
	if _, err := c.nc.Write(wire); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, c.body.Bytes())
	}
	return c.body.Bytes(), err
}

func (c *clientConn) close() { c.nc.Close() }

// bodies holds, per distinct request, the first body served for it;
// every later answer to the same request must equal it byte for byte.
type bodies []atomic.Pointer[[]byte]

// check compares body with the stored answer for request d, storing it
// when it is the first.
func (b bodies) check(d int, body []byte) error {
	ref := b[d].Load()
	if ref == nil {
		cp := bytes.Clone(body)
		if b[d].CompareAndSwap(nil, &cp) {
			return nil
		}
		ref = b[d].Load()
	}
	if !bytes.Equal(*ref, body) {
		return fmt.Errorf("answer changed between two identical requests: %q then %q", *ref, body)
	}
	return nil
}

// warmServer sends the warm pass serially on one connection.
func warmServer(s *server, in *serveInputs, refs bodies, tr *tracer, parent int) error {
	sp := tr.begin("warm", parent, -1)
	defer tr.end(sp)
	c, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, d := range in.Warm {
		body, err := c.get(in.Distinct[d].wire())
		if err == nil {
			err = refs.check(d, body)
		}
		if err != nil {
			return fmt.Errorf("warm %s: %w", in.Distinct[d].path(), err)
		}
	}
	return nil
}

// servedPhase is what one measured phase against a server observed.
type servedPhase struct {
	phase
	before, after *telemetry.Scrape
}

// driveServer runs the measured phase: a closed loop over in.Ops on
// conns connections, each sending its next op once the last answered.
func driveServer(s *server, in *serveInputs, refs bodies, tr *tracer) (*servedPhase, error) {
	wires := make([][]byte, len(in.Distinct))
	for i, r := range in.Distinct {
		wires[i] = r.wire()
	}
	cs := make([]*clientConn, conns)
	for i := range cs {
		c, err := dial(s.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		cs[i] = c
	}
	before, err := scrape(s.addr)
	if err != nil {
		return nil, err
	}
	out := &servedPhase{before: before}
	out.lat = make([]time.Duration, len(in.Ops))
	var failed atomic.Int64
	var errOnce sync.Once
	// loop runs ops [lo, hi) as a closed loop over every connection.
	loop := func(lo, hi int) {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					d := in.Ops[i]
					op := tr.begin("op", -1, int64(i))
					rpc := tr.begin("rpc", op, int64(i))
					t0 := time.Now()
					body, err := c.get(wires[d])
					out.lat[i] = time.Since(t0)
					tr.end(rpc)
					chk := tr.begin("check", op, int64(i))
					if err == nil {
						err = refs.check(d, body)
					}
					tr.end(chk)
					tr.end(op)
					if err != nil {
						failed.Add(1)
						errOnce.Do(func() { out.err = fmt.Errorf("op %d %s: %w", i, in.Distinct[d].path(), err) })
						if c2, derr := dial(s.addr); derr == nil { // the connection may be broken
							c.close()
							*c = *c2
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	if err := out.measure(s.pid(), loop); err != nil {
		return nil, err
	}
	out.failed = int(failed.Load())
	if out.after, err = scrape(s.addr); err != nil {
		return nil, err
	}
	if out.rss, err = peakRSS(s.pid()); err != nil {
		return nil, err
	}
	return out, nil
}

// scrape reads the server's /metrics.
func scrape(addr string) (*telemetry.Scrape, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return telemetry.ParseText(resp.Body)
}

// delta is the change of an unlabeled series between two scrapes.
func delta(before, after *telemetry.Scrape, name string) float64 {
	a, _ := after.Value(name, nil)
	b, _ := before.Value(name, nil)
	return a - b
}

// verifySample is how many distinct served answers are recomputed on a
// cold in-process oracle after each run.
const verifySample = 64

// verifyServed recomputes a seeded sample of the distinct answers the
// server gave on a cold in-process oracle.Server and compares the bodies
// byte for byte; the JSON encoder prints every float exactly, so equal
// bodies mean bitwise-equal answers.
func verifyServed(in *serveInputs, refs bodies, seed int64) error {
	var have []int
	for d := range in.Distinct {
		if refs[d].Load() != nil {
			have = append(have, d)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(have), func(i, j int) { have[i], have[j] = have[j], have[i] })
	have = have[:min(len(have), verifySample)]
	sort.Ints(have)
	h := oracle.NewServer(oracle.New(0), 0).Handler()
	for _, d := range have {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, in.Distinct[d].path(), nil))
		if got := *refs[d].Load(); !bytes.Equal(rr.Body.Bytes(), got) {
			return fmt.Errorf("served %s = %q, cold oracle says %q", in.Distinct[d].path(), got, rr.Body.Bytes())
		}
	}
	if len(have) == 0 {
		return errors.New("no served answer to verify")
	}
	return nil
}
