package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"compass/internal/litmus"
	"compass/internal/serve"
	"compass/internal/telemetry"
)

// svcWorkload is the registry name of the job svc-dedup submits.
const svcWorkload = "lib/deque"

// svcJob is the job svc-dedup submits: the lib-refine exploration of the
// Chase-Lev deque with dedup on, checkpointed every
// serve.DefaultCheckpointEvery executions.
var svcJob = serve.JobSpec{
	Workload: svcWorkload, POR: "source", Dedup: true, Refine: true,
	KeepGoing: true, MaxRuns: 600000, Workers: workers,
}

// pollInterval is the status poller's fixed period (an open loop at 5
// requests per second). It is the period at which the repo's own status
// client, `compassd -client`, polls GET /v1/jobs/{id} (cmd/compassd/main.go).
const pollInterval = 200 * time.Millisecond

// svcClient drives one compassd instance: a manager with a state
// directory on local disk, served on a loopback listener.
type svcClient struct {
	e      *env
	golden map[string]string
	dir    string
	base   string
	http   *http.Client
	// last is the final telemetry snapshot of the last job's event
	// stream; jobID names that job.
	last    telemetry.Snapshot
	jobID   string
	metrics map[string]float64
}

// setupSvcDedup is svc-dedup: compassd in process, one client that
// submits a dedup job and follows its event stream until the job is done
// (a closed loop with one client), and beside it a poller reading the
// job's status at a fixed rate (an open loop).
func setupSvcDedup(e *env) (*instance, error) {
	golden, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.out, "svc-state-")
	if err != nil {
		return nil, err
	}
	m, err := serve.NewManager(serve.Config{StateDir: dir, Workers: workers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := &http.Server{Handler: serve.Handler(m)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	transport := &http.Transport{}
	c := &svcClient{
		e: e, golden: golden, dir: dir, base: "http://" + ln.Addr().String(),
		http: &http.Client{Transport: transport}, metrics: map[string]float64{},
	}
	return &instance{
		verdict:  c.verdict,
		snapshot: func() telemetry.Snapshot { return c.last },
		probe:    c.probe,
		serve:    c.metrics,
		close: func() {
			// Client connections go first: the server's Shutdown waits up
			// to 5 s for a connection the transport dialed but never used.
			transport.CloseIdleConnections()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-served
			m.Shutdown()
			os.RemoveAll(dir)
		},
	}, nil
}

// request sends one HTTP request and returns the response body, judging
// it as one operation.
func (c *svcClient) request(method, path string, body []byte, want int) ([]byte, opResult) {
	op := opResult{name: method + " " + path}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		op.detail = err.Error()
		return nil, op
	}
	resp, err := c.http.Do(req)
	if err != nil {
		op.detail = err.Error()
		return nil, op
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		op.detail = err.Error()
	case resp.StatusCode != want:
		op.detail = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		op.ok = true
	}
	return data, op
}

// verdict submits the job, follows its event stream to the end, and
// judges the final status against the golden corpus.
func (c *svcClient) verdict() []opResult {
	tr := c.e.tr
	root := tr.begin("serve.job", layerServe, svcWorkload, 0)
	defer tr.end(root)
	spec, err := json.Marshal(svcJob)
	if err != nil {
		return []opResult{{name: "encode job spec", detail: err.Error()}}
	}
	t0 := time.Now()
	sub := tr.begin("serve.submit", layerServe, svcWorkload, root)
	data, op := c.request("POST", "/v1/jobs", spec, http.StatusAccepted)
	tr.end(sub)
	submitted, submit := tr.now(), time.Since(t0)
	ops := []opResult{op}
	var view serve.JobView
	if op.ok {
		if err := json.Unmarshal(data, &view); err != nil || view.ID == "" {
			ops[0].ok, ops[0].detail = false, fmt.Sprintf("submit response %q: %v", data, err)
		}
	}
	if !ops[0].ok {
		return ops
	}
	c.jobID = view.ID
	tr.setReq(root, view.ID)
	tr.setReq(sub, view.ID)

	p := c.startPoller(view.ID)
	gaps, streamOp := c.follow(view.ID, root, submitted, t0.Add(submit))
	ops = append(ops, streamOp)
	data, op = c.request("GET", "/v1/jobs/"+view.ID, nil, http.StatusOK)
	if op.ok {
		op = c.judge(data)
	}
	ops = append(ops, op)
	ops = append(ops, p.stop()...)

	if tr != nil {
		m := c.metrics
		m["serve.submit_ms"] = submit.Seconds() * 1e3
		m["serve.segments"] = float64(len(gaps))
		m["serve.segment_gap_p50_s"] = median(gaps)
		m["serve.segment_gap_max_s"] = quantile(gaps, 1)
		m["serve.checkpoints"] = float64(c.last.Serve.Checkpoints)
		m["serve.status_p50_ms"] = quantile(p.latency, 0.5) * 1e3
		m["serve.status_p90_ms"] = quantile(p.latency, 0.9) * 1e3
		m["serve.generator_late_ms"] = quantile(p.late, 1) * 1e3
	}
	return ops
}

// follow reads the job's NDJSON event stream until the job ends. Each
// event closes one segment span, which runs from the previous event (or
// the submit's return, at tracer time prev and wall time prevAt) to its
// arrival; it returns the gaps in seconds.
func (c *svcClient) follow(id string, root int, prev time.Duration, prevAt time.Time) ([]float64, opResult) {
	tr := c.e.tr
	op := opResult{name: "GET /v1/jobs/" + id + "/events"}
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		op.detail = err.Error()
		return nil, op
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		op.detail = fmt.Sprintf("status %d", resp.StatusCode)
		return nil, op
	}
	var gaps []float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		at, now := tr.now(), time.Now()
		tr.record("serve.segment", layerMachine, id, root, prev, at)
		gaps = append(gaps, now.Sub(prevAt).Seconds())
		prev, prevAt = at, now
		if err := json.Unmarshal(sc.Bytes(), &c.last); err != nil {
			op.detail = fmt.Sprintf("event %d: %v", len(gaps), err)
			return gaps, op
		}
	}
	if err := sc.Err(); err != nil {
		op.detail = err.Error()
		return gaps, op
	}
	if len(gaps) == 0 {
		op.detail = "event stream ended without an event"
		return gaps, op
	}
	op.ok = true
	return gaps, op
}

// judge checks the final job view: done, with the golden verdict of the
// deque's library refinement line.
func (c *svcClient) judge(data []byte) opResult {
	op := opResult{name: "job " + c.jobID}
	var view serve.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		op.detail = fmt.Sprintf("job view: %v", err)
		return op
	}
	if view.Status != serve.StatusDone || view.Result == nil {
		op.detail = fmt.Sprintf("job ended %s (%s) without a result", view.Status, view.Error)
		return op
	}
	res := litmus.LibResult{
		Test:          litmus.LibTest{Name: svcWorkload},
		Complete:      view.Result.Complete,
		Passed:        view.Result.Passed,
		TracesChecked: c.last.Refine.TracesChecked,
		Disagreements: c.last.Refine.Disagreements,
	}
	if rep := view.Result.Report; rep != nil {
		rules := map[string]bool{}
		for _, f := range rep.Failures {
			for _, v := range f.Violations {
				rules[v.Rule] = true
			}
		}
		for r := range rules {
			res.Rules = append(res.Rules, r)
		}
		sort.Strings(res.Rules)
	}
	op = gateGolden(svcWorkload, res.GoldenLine(), c.golden)
	op.execs = view.Runs
	return op
}

// probe loads the job's final checkpoint from the state directory and
// saves it into a scratch store, timing both.
func (c *svcClient) probe() error {
	tr := c.e.tr
	st, err := serve.NewStore(c.dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	id := tr.begin("serve.checkpoint_load", layerServe, c.jobID, 0)
	cp, err := st.Load(c.jobID)
	tr.end(id)
	load := time.Since(t0)
	if err != nil {
		return fmt.Errorf("load final checkpoint: %w", err)
	}
	scratch, err := serve.NewStore(filepath.Join(c.dir, "scratch"))
	if err != nil {
		return err
	}
	t0 = time.Now()
	id = tr.begin("serve.checkpoint_save", layerServe, c.jobID, 0)
	n, err := scratch.Save(cp)
	tr.end(id)
	save := time.Since(t0)
	if err != nil {
		return fmt.Errorf("save final checkpoint: %w", err)
	}
	c.metrics["serve.checkpoint_load_s"] = load.Seconds()
	c.metrics["serve.checkpoint_save_s"] = save.Seconds()
	c.metrics["serve.checkpoint_mib"] = float64(n) / (1 << 20)
	return nil
}

// poller GETs one job's status every pollInterval, each request sent on
// its own goroutine at its due time whether or not earlier ones have
// answered. Latency is timed from when a request was due, so a stalled
// server also delays the requests queued behind the stall.
type poller struct {
	quit chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	ops     []opResult
	latency []float64 // seconds from due to response
	late    []float64 // seconds from due to send
}

func (c *svcClient) startPoller(id string) *poller {
	p := &poller{quit: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(p.done)
		timer := time.NewTimer(pollInterval)
		defer timer.Stop()
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * pollInterval)
			timer.Reset(time.Until(due))
			select {
			case <-p.quit:
				return
			case <-timer.C:
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				sent := time.Now()
				_, op := c.request("GET", "/v1/jobs/"+id, nil, http.StatusOK)
				lat := time.Since(due)
				p.mu.Lock()
				defer p.mu.Unlock()
				p.ops = append(p.ops, op)
				p.latency = append(p.latency, lat.Seconds())
				p.late = append(p.late, sent.Sub(due).Seconds())
			}()
		}
	}()
	return p
}

// stop ends the generator, waits for every request in flight, and
// returns the requests' operations.
func (p *poller) stop() []opResult {
	close(p.quit)
	<-p.done
	p.wg.Wait()
	return p.ops
}
