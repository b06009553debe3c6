package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"compass"
	"compass/internal/check"
	"compass/internal/machine"
	"compass/internal/spec"
	"compass/internal/telemetry"
)

// Span layers. A span's layer is the module whose code runs inside it,
// apart from the time its child spans cover.
const (
	layerBuild   = "build"
	layerMachine = "machine"
	layerSpec    = "spec"
	layerRefine  = "refine"
	layerServe   = "serve"
)

// spanLayers maps each span layer to the metric holding its self time.
var spanLayers = map[string]string{
	layerBuild:   "build.s",
	layerMachine: "machine.self_s",
	layerSpec:    "spec.s",
	layerRefine:  "refine.s",
	layerServe:   "serve.self_s",
}

// span is one timed call into a layer.
type span struct {
	name, layer string
	req         string // request id: the test, library or job the span serves
	parent      int    // id of the enclosing span; 0 for a root
	start, end  time.Duration
}

// tracer keeps spans in memory; ids are 1-based indexes. A nil tracer
// records nothing, so untraced iterations pay one pointer test per call.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, layer, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, req: req, parent: parent, start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// now returns the tracer clock (0 for a nil tracer).
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// record adds a span whose start and end were read from now.
func (t *tracer) record(name, layer, req string, parent int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, layer: layer, req: req, parent: parent, start: start, end: end})
}

// setReq sets span id's request id, once it is known.
func (t *tracer) setReq(id int, req string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].req = req
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed wraps f in a span under parent.
func timed[R any](tr *tracer, name, layer, req string, parent int, f func() R) R {
	id := tr.begin(name, layer, req, parent)
	defer tr.end(id)
	return f()
}

// wrapProgram times a litmus test's Build closure.
func wrapProgram(tr *tracer, parent int, req string, build func() machine.Program) func() machine.Program {
	if tr == nil {
		return build
	}
	return func() machine.Program { return timed(tr, "build", layerBuild, req, parent, build) }
}

// wrapChecked times a checked workload's Build closure and the Check,
// Oracle and Refine closures of every instance it builds.
func wrapChecked(tr *tracer, parent int, req string, build func() check.Checked) func() check.Checked {
	if tr == nil {
		return build
	}
	verdict := func(name string, f func() ([]spec.Violation, int)) func() ([]spec.Violation, int) {
		if f == nil {
			return nil
		}
		return func() ([]spec.Violation, int) {
			id := tr.begin(name, layerSpec, req, parent)
			defer tr.end(id)
			return f()
		}
	}
	return func() check.Checked {
		c := timed(tr, "build", layerBuild, req, parent, build)
		c.Check = verdict("spec.Check", c.Check)
		c.Oracle = verdict("spec.Oracle", c.Oracle)
		if r := c.Refine; r != nil {
			c.Refine = func(res *machine.Result, st *telemetry.Stats) ([]spec.Violation, int) {
				id := tr.begin("refine.Refine", layerRefine, req, parent)
				defer tr.end(id)
				return r(res, st)
			}
		}
		return c
	}
}

// attribute splits the wall time of every span tree among its spans and
// returns the total per layer. At each instant the time goes, in equal
// shares, to the active spans that have no active child. A span's share
// is therefore its duration minus the part its children cover — its self
// time — and when children overlap on parallel workers they split the
// time they share, so the shares of one tree sum to its root's duration.
func attribute(spans []span) map[string]float64 {
	type edge struct {
		t    time.Duration
		open bool
		i    int
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.end > s.start {
			edges = append(edges, edge{s.start, true, i}, edge{s.end, false, i})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].t != edges[b].t {
			return edges[a].t < edges[b].t
		}
		return !edges[a].open && edges[b].open
	})
	kids := make([]int, len(spans)) // active children per span
	var active []int
	self := map[string]float64{}
	var prev time.Duration
	for _, ed := range edges {
		if dt := ed.t - prev; dt > 0 && len(active) > 0 {
			exposed := 0
			for _, i := range active {
				if kids[i] == 0 {
					exposed++
				}
			}
			for _, i := range active {
				if kids[i] == 0 {
					self[spans[i].layer] += dt.Seconds() / float64(exposed)
				}
			}
		}
		prev = ed.t
		p := spans[ed.i].parent
		if ed.open {
			active = append(active, ed.i)
			if p > 0 {
				kids[p-1]++
			}
			continue
		}
		for k, i := range active {
			if i == ed.i {
				active = append(active[:k], active[k+1:]...)
				break
			}
		}
		if p > 0 {
			kids[p-1]--
		}
	}
	return self
}

// checkAttribution verifies that layer self times are non-negative and
// sum to at most the verdict time they were measured in.
func checkAttribution(self map[string]float64, verdict float64) error {
	sum := 0.0
	for layer, v := range self {
		if v < 0 {
			return fmt.Errorf("layer %s has negative self time %g s", layer, v)
		}
		sum += v
	}
	if sum > verdict+1e-6 {
		return fmt.Errorf("layer self times sum to %g s, above the verdict's %g s", sum, verdict)
	}
	return nil
}

// writeChromeTrace writes the spans as a Chrome trace: one complete event
// per span, on the first lane free at its start, with the span id, parent
// id, request id and layer as arguments. It then reads the file back and
// validates it.
func writeChromeTrace(path, title string, spans []span) error {
	tr := compass.NewChromeTrace()
	tr.Append(telemetry.ProcessName(1, title))
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	var laneEnd []time.Duration
	for _, i := range order {
		s := spans[i]
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > s.start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
			tr.Append(telemetry.ThreadName(1, lane, fmt.Sprintf("lane %d", lane)))
		}
		laneEnd[lane] = s.end
		tr.Append(compass.ChromeTraceEvent{
			Name: s.name, Cat: s.layer, Ph: "X", PID: 1, TID: lane,
			TS: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			Args: map[string]interface{}{"id": i + 1, "parent": s.parent, "request": s.req, "layer": s.layer},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return compass.ValidateChromeTraceJSON(data)
}
