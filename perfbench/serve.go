package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/exp/spec"
)

const (
	hotKeys        = 16                   // primed keys, far fewer than the daemon's 128 cache entries
	hotPerCold     = 3                    // hot ops before each cold op of a round
	conns          = 2                    // closed-loop client connections
	pollEvery      = 2 * time.Millisecond // status poll interval of a job not yet done
	httpTimeout    = 30 * time.Second     // one HTTP exchange
	startTimeout   = 10 * time.Second     // daemon exec until /healthz answers 200
	drainTimeout   = 40 * time.Second     // SIGTERM until the daemon exits
	coldReplays    = 60                   // cold ops a traced run replays in process
	setups         = 3                    // daemon set-ups per run; setup_s is their median
	definitionFile = "testdata/definitions/table1-dynamic.json"
)

// kinds are the request shapes of both hot keys and cold ops. A round
// visits them in order, each after hotPerCold hot ops. The empty name
// is the stored definition, run by its content id.
var kinds = []struct {
	name  string
	sizes []int
}{
	{"lowerbound", nil},
	{"table2", []int{1024}},
	{"compaction", []int{4096}},
	{"table1", []int{1024}},
	{"", []int{1024}},
}

// serveOp is one timed request: its inputs, what the daemon answered,
// and the client-side timings.
type serveOp struct {
	hot   bool
	kind  int
	seed  uint64
	id    string
	state []byte // final status document, kept for cold ops
	art   []byte // artifact, kept for cold ops

	lat, submit, artifact time.Duration
	polls                 int
	cached                bool

	queueWait, cells, render time.Duration // cold ops' timeline, traced runs only

	err error
}

type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: httpTimeout}}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expect runs one exchange and refuses any status but want.
func (c *client) expect(ctx context.Context, want int, method, path string, body []byte) ([]byte, error) {
	code, b, err := c.do(ctx, method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, lastLine(string(b)))
	}
	return b, nil
}

type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
}

// run submits op's request and polls until the job is done, then
// fetches the artifact: the span a user waits for.
func (c *client) run(ctx context.Context, body []byte, op *serveOp) {
	t0 := time.Now()
	b, err := c.expect(ctx, http.StatusAccepted, "POST", "/v1/runs", body)
	op.submit = time.Since(t0)
	var st jobStatus
	for err == nil {
		if err = json.Unmarshal(b, &st); err != nil {
			break
		}
		if op.id == "" {
			op.id, op.cached = st.ID, st.CacheHit
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" {
			err = fmt.Errorf("job %s failed: %s", st.ID, st.Error)
			break
		}
		time.Sleep(pollEvery)
		op.polls++
		b, err = c.expect(ctx, http.StatusOK, "GET", "/v1/runs/"+st.ID, nil)
	}
	if err != nil {
		op.err = err
		return
	}
	op.state = b
	t1 := time.Now()
	op.art, op.err = c.expect(ctx, http.StatusOK, "GET", "/v1/runs/"+st.ID+"/artifact", nil)
	op.artifact = time.Since(t1)
	op.lat = time.Since(t0)
}

// timeline reads a finished job's wall-clock timeline.
func (c *client) timeline(ctx context.Context, op *serveOp) error {
	b, err := c.expect(ctx, http.StatusOK, "GET", "/v1/runs/"+op.id+"/timeline", nil)
	if err != nil {
		return err
	}
	var tl struct {
		Timing struct {
			QueueWait float64 `json:"queue_wait_seconds"`
			Render    float64 `json:"render_seconds"`
			Cells     []struct {
				Wall float64 `json:"wall_seconds"`
			} `json:"cells"`
		} `json:"timing"`
	}
	if err := json.Unmarshal(b, &tl); err != nil {
		return fmt.Errorf("timeline %s: %w", op.id, err)
	}
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	op.queueWait, op.render = sec(tl.Timing.QueueWait), sec(tl.Timing.Render)
	for _, c := range tl.Timing.Cells {
		op.cells += sec(c.Wall)
	}
	return nil
}

// daemon is one running lowcontendd, started with default flags on an
// ephemeral loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been reaped
	werr error
}

// addrWriter drains the daemon's standard output, handing on the bound
// address from its first line.
type addrWriter struct {
	buf  []byte
	addr chan string // buffered, receives one line
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.addr != nil {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			addr, _ := strings.CutPrefix(string(w.buf[:i]), "lowcontendd listening on ")
			w.addr <- addr
			w.addr, w.buf = nil, nil
		}
	}
	return len(p), nil
}

// startDaemon execs the daemon and returns once /healthz answers 200.
// The daemon's log output goes to standard error, which is drained: its
// cost is part of the daemon's.
func startDaemon(ctx context.Context, bin string) (*daemon, *client, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Env = programEnv()
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = aw, io.Discard
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		d.werr = cmd.Wait()
		close(d.done)
	}()
	deadline := time.After(startTimeout)
	select {
	case d.addr = <-aw.addr:
	case <-d.done:
		return nil, nil, fmt.Errorf("daemon exited at start: %v", d.werr)
	case <-deadline:
		d.kill()
		return nil, nil, fmt.Errorf("daemon printed no address")
	case <-ctx.Done():
		d.kill()
		return nil, nil, errInterrupted
	}
	c := newClient(d.addr)
	for {
		if code, _, err := c.do(ctx, "GET", "/healthz", nil); err == nil && code == http.StatusOK {
			return d, c, nil
		}
		select {
		case <-deadline:
			d.kill()
			return nil, nil, fmt.Errorf("daemon at %s never answered /healthz", d.addr)
		case <-ctx.Done():
			d.kill()
			return nil, nil, errInterrupted
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM, lets the daemon drain, and reaps it.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.done:
		return d.werr
	case <-time.After(drainTimeout):
		d.kill()
		return fmt.Errorf("daemon did not drain within %v", drainTimeout)
	}
}

// kill ends the daemon if it still runs and waits until it is reaped.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

// cpu reads the daemon's user+system CPU time from the kernel's
// accounting (/proc/<pid>/stat, in clock ticks of 10ms).
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unreadable /proc stat")
	}
	var ticks int64
	for _, s := range f[11:13] { // utime and stime, fields 14 and 15
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// serveRun is one serve_mix run's daemon, stored definition and primed
// hot keys.
type serveRun struct {
	b      *bench
	defRaw []byte
	defID  string
	primed [hotKeys][]byte
}

func (s *serveRun) body(kind int, seed uint64) []byte {
	name := kinds[kind].name
	if name == "" {
		name = s.defID
	}
	b, _ := json.Marshal(struct {
		Experiment string `json:"experiment"`
		Sizes      []int  `json:"sizes,omitempty"`
		Seed       uint64 `json:"seed"`
	}{name, kinds[kind].sizes, seed})
	return b
}

func hotSeed(b *bench, key int) uint64 { return derive(b.seed, streamHot, uint64(key)) }

// setUp starts a daemon, stores the definition, and primes every hot
// key over the client connections; it reports the time from exec to
// healthy and the definition round trip.
func (s *serveRun) setUp(ctx context.Context) (d *daemon, c *client, ready, define time.Duration, err error) {
	t0 := time.Now()
	if d, c, err = startDaemon(ctx, s.b.daemon); err != nil {
		return nil, nil, 0, 0, err
	}
	ready = time.Since(t0)
	defer func() {
		if err != nil {
			d.kill()
		}
	}()
	t1 := time.Now()
	b, err := c.expect(ctx, http.StatusCreated, "POST", "/v1/experiments", s.defRaw)
	define = time.Since(t1)
	if err != nil {
		return
	}
	var def struct{ ID string }
	if err = json.Unmarshal(b, &def); err != nil {
		return
	}
	if s.defID != "" && def.ID != s.defID {
		err = fmt.Errorf("definition id %s changed from %s", def.ID, s.defID)
		return
	}
	s.defID = def.ID
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < hotKeys; k += conns {
				op := serveOp{}
				c.run(ctx, s.body(k%len(kinds), hotSeed(s.b, k)), &op)
				if op.err == nil && s.primed[k] != nil && !bytes.Equal(op.art, s.primed[k]) {
					op.err = fmt.Errorf("hot key %d rendered differently by another daemon", k)
				}
				if op.err != nil {
					errs[w] = op.err
					return
				}
				s.primed[k] = op.art
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			err = fmt.Errorf("priming: %w", e)
		}
	}
	return
}

// serveMix runs the serve_mix workload: set-up repeated, then a closed
// loop over conns connections that interleaves hot resubmissions of the
// primed keys with cold runs at fresh seeds, then the checks.
func serveMix(ctx context.Context, b *bench, minOps int) (*outcome, error) {
	raw, err := os.ReadFile(filepath.Join(b.root, definitionFile))
	if err != nil {
		return nil, err
	}
	s := &serveRun{b: b, defRaw: raw}
	o := &outcome{}
	var ready, define []time.Duration
	var d *daemon
	var c *client
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		dd, cc, r, df, err := s.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(t0))
		ready, define = append(ready, r), append(define, df)
		if i < setups-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("set-up: stopping daemon: %w", err)
			}
			continue
		}
		d, c = dd, cc
	}
	defer d.kill()

	var before, after scrape
	if b.trace {
		if before, err = scrapeMetrics(ctx, c); err != nil {
			return nil, err
		}
	}
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	var completed atomic.Int64
	logs := make([][]serveOp, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hot := 0
			for round := 0; (time.Since(start) < b.seconds || completed.Load() < int64(minOps)) && ctx.Err() == nil; round++ {
				for k := range kinds {
					for range hotPerCold {
						key := (cn*hotKeys/conns + hot) % hotKeys
						hot++
						op := serveOp{hot: true, kind: key % len(kinds), seed: hotSeed(b, key)}
						c.run(ctx, s.body(op.kind, op.seed), &op)
						if op.err == nil && !bytes.Equal(op.art, s.primed[key]) {
							op.err = fmt.Errorf("hot key %d artifact differs from its primed copy", key)
						}
						op.state, op.art = nil, nil
						logs[cn] = append(logs[cn], op)
						completed.Add(1)
					}
					op := serveOp{kind: k, seed: derive(b.seed, streamCold, uint64(cn), uint64(round), uint64(k))}
					c.run(ctx, s.body(k, op.seed), &op)
					if b.trace && op.err == nil {
						op.err = c.timeline(ctx, &op)
					}
					logs[cn] = append(logs[cn], op)
					completed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	o.elapsed = time.Since(start)
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	o.cpu = cpu1 - cpu0
	if b.trace {
		if after, err = scrapeMetrics(ctx, c); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemon: %w", err)
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		o.rssKB = append(o.rssKB, ru.Maxrss)
	}

	var ops []serveOp
	for _, l := range logs {
		ops = append(ops, l...)
	}
	var cold []*serveOp
	for i := range ops {
		if !ops[i].hot && ops[i].err == nil {
			cold = append(cold, &ops[i])
		}
	}
	// Accounting identities on every cold result, from the retained
	// status documents.
	for _, op := range cold {
		var st struct {
			Result resultDoc `json:"result"`
		}
		if err := json.Unmarshal(op.state, &st); err != nil {
			op.err = err
		} else if err := checkAccounting(st.Result); err != nil {
			op.err = err
		}
	}
	s.crossCheck(ctx, cold)

	var layers layerRun
	if b.trace {
		if err := s.replayCold(cold, &layers); err != nil {
			return nil, err
		}
	}
	o.attempted = len(ops)
	for i := range ops {
		if ops[i].err != nil {
			o.fail(true, "op (hot %v, kind %d, seed %d): %v", ops[i].hot, ops[i].kind, ops[i].seed, ops[i].err)
			continue
		}
		o.lat = append(o.lat, ops[i].lat)
	}
	if b.trace {
		o.layers = layers.metrics()
		if err := serveLayers(o.layers, ops, ready, define, before, after); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// crossCheck re-runs a seeded sample of cold ops through `lowcontend
// run` / `define` with the same sizes and seed; each must print the
// daemon's artifact byte for byte.
func (s *serveRun) crossCheck(ctx context.Context, cold []*serveOp) {
	sample := cold
	if n := s.b.crosscheck; n >= 0 && n < len(cold) {
		rng := rand.New(rand.NewPCG(derive(s.b.seed, streamSample), 0))
		sample = nil
		for _, i := range rng.Perm(len(cold))[:n] {
			sample = append(sample, cold[i])
		}
	}
	for _, op := range sample {
		if op.err != nil {
			continue
		}
		r := s.b.runCLI(ctx, cliArgs(s.b.root, op.kind, op.seed)...)
		switch {
		case r.err != nil:
			op.err = r.err
		case !bytes.Equal(r.stdout, op.art):
			op.err = fmt.Errorf("daemon artifact differs from `lowcontend %s`", strings.Join(cliArgs(s.b.root, op.kind, op.seed), " "))
		}
	}
}

// cliArgs is the lowcontend invocation that renders a request's
// artifact locally.
func cliArgs(root string, kind int, seed uint64) []string {
	args := []string{"-seed", strconv.FormatUint(seed, 10)}
	if sz := kinds[kind].sizes; sz != nil {
		parts := make([]string, len(sz))
		for i, n := range sz {
			parts[i] = strconv.Itoa(n)
		}
		args = append(args, "-sizes", strings.Join(parts, ","))
	}
	if kinds[kind].name == "" {
		return append(args, "define", filepath.Join(root, definitionFile))
	}
	return append(args, "run", kinds[kind].name)
}

// replayCold replays the first coldReplays cold ops in process through
// spec.Runner on one shared pool configured as the daemon's (one
// step-level worker per machine, cells one at a time), splitting
// release from simulation. Each replay must render the daemon's
// artifact.
func (s *serveRun) replayCold(cold []*serveOp, layers *layerRun) error {
	def, derr := dynamic.Parse(s.defRaw, dynamic.DefaultLimits())
	if derr != nil {
		return fmt.Errorf("definition: %v", derr)
	}
	pool := core.NewSessionPool()
	pool.Workers = 1
	defer pool.Close()
	r := spec.Runner{Parallel: 1, Pool: pool}
	dyn := dynamic.Compile(def)
	for _, op := range cold[:min(len(cold), coldReplays)] {
		e := dyn
		if name := kinds[op.kind].name; name != "" {
			e, _ = exp.Find(name)
		}
		sizes := kinds[op.kind].sizes
		if sizes == nil {
			sizes = e.DefaultSizes
		}
		st := &replayStats{}
		before := pool.Stats()
		res := st.runObserved(r, e, sizes, op.seed)
		t0 := time.Now()
		text := e.Render(res) + "\n"
		st.render = time.Since(t0)
		after := pool.Stats()
		st.acquires, st.news = after.Acquires-before.Acquires, after.News-before.News
		if text != string(op.art) {
			op.err = fmt.Errorf("in-process replay renders differently from the daemon")
		}
		layers.add(st)
	}
	return nil
}

// scrape is one reading of the daemon's /metrics, in both formats.
type scrape struct {
	flat                 map[string]float64
	handlerSum, handlerN float64
}

// opRoutes are the endpoints a timed op calls; the handler time of the
// tracing calls (timeline, metrics) is left out.
var opRoutes = map[string]bool{"POST /v1/runs": true, "GET /v1/runs/{id}": true, "GET /v1/runs/{id}/artifact": true}

func scrapeMetrics(ctx context.Context, c *client) (scrape, error) {
	var s scrape
	b, err := c.expect(ctx, http.StatusOK, "GET", "/metrics", nil)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s.flat); err != nil {
		return s, fmt.Errorf("/metrics: %w", err)
	}
	if b, err = c.expect(ctx, http.StatusOK, "GET", "/metrics?format=prometheus", nil); err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok || (name != "lowcontend_http_request_duration_seconds_sum" && name != "lowcontend_http_request_duration_seconds_count") {
			continue
		}
		ep, _, _ := strings.Cut(strings.TrimPrefix(rest, `endpoint="`), `"`)
		f := strings.Fields(rest)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil || !opRoutes[ep] {
			continue
		}
		if strings.HasSuffix(name, "_sum") {
			s.handlerSum += v
		} else {
			s.handlerN += v
		}
	}
	return s, nil
}

// serveLayers fills the service-layer metrics of a traced serve_mix run.
func serveLayers(m map[string]metric, ops []serveOp, ready, define []time.Duration, before, after scrape) error {
	var hot, cold, submit, art, queue, cells, render []time.Duration
	cached, polls := 0, 0
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		submit, art = append(submit, op.submit), append(art, op.artifact)
		if op.hot {
			hot = append(hot, op.lat)
			if op.cached {
				cached++
			}
			continue
		}
		cold = append(cold, op.lat)
		polls += op.polls
		queue, cells, render = append(queue, op.queueWait), append(cells, op.cells), append(render, op.render)
	}
	if len(hot) == 0 || len(cold) == 0 {
		return fmt.Errorf("traced run completed no hot or no cold op")
	}
	hotTail, err := percentile(msOf(hot), layerTail)
	if err != nil {
		return fmt.Errorf("serve.hot_tail_ms: %w", err)
	}
	coldTail, err := percentile(msOf(cold), layerTail)
	if err != nil {
		return fmt.Errorf("serve.cold_tail_ms: %w", err)
	}
	n := float64(len(hot) + len(cold))
	delta := func(k string) float64 { return after.flat[k] - before.flat[k] }
	set(m, "serve.ready_ms", median(msOf(ready)))
	set(m, "dynamic.define_ms", median(msOf(define)))
	set(m, "serve.hot_ms", median(msOf(hot)))
	set(m, "serve.hot_tail_ms", hotTail)
	set(m, "serve.cold_ms", median(msOf(cold)))
	set(m, "serve.cold_tail_ms", coldTail)
	set(m, "serve.hot_cached_ratio", float64(cached)/float64(len(hot)))
	set(m, "serve.submit_ms", median(msOf(submit)))
	set(m, "serve.artifact_ms", median(msOf(art)))
	set(m, "serve.polls_per_cold", float64(polls)/float64(len(cold)))
	if dn := after.handlerN - before.handlerN; dn > 0 {
		set(m, "serve.handler_ms", (after.handlerSum-before.handlerSum)/dn*1000)
	}
	set(m, "serve.queue_wait_ms", median(msOf(queue)))
	set(m, "serve.job_cells_ms", median(msOf(cells)))
	set(m, "serve.job_render_ms", median(msOf(render)))
	set(m, "serve.cache_misses", delta("cache_misses"))
	set(m, "serve.rejected", delta("jobs_rejected"))
	set(m, "serve.gc_cycles", delta("proc_gc_cycles")/n)
	set(m, "serve.heap_mb", after.flat["proc_heap_objects_bytes"]/(1<<20))
	set(m, "core.pool_idle", after.flat["pool_idle"])
	set(m, "obs.flight_events_per_op", delta("flight_events")/n)
	return nil
}
