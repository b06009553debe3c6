package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
)

// layerMetrics derives one traced iteration's per-layer metrics from the
// spans of its verdict and the counters the layers export.
func layerMetrics(e *env, inst *instance, s sample, spans []span) (map[string]float64, error) {
	m := map[string]float64{}
	self := attribute(spans)
	sum := 0.0
	for layer, name := range spanLayers {
		m[name] = self[layer]
		sum += self[layer]
	}
	m["trace.unattributed_s"] = s.verdict - sum
	for _, sp := range spans {
		switch sp.layer {
		case layerBuild:
			m["build.calls"]++
		case layerSpec:
			m["spec.calls"]++
		case layerRefine:
			m["refine.calls"]++
		}
	}

	var snap = e.stats.Snapshot()
	if inst.snapshot != nil {
		snap = inst.snapshot()
	}
	m["machine.execs"] = float64(snap.Machine.Execs)
	m["machine.steps"] = float64(snap.Machine.Steps)
	if snap.Machine.Steps > 0 {
		m["machine.ns_per_step"] = self[layerMachine] / float64(snap.Machine.Steps) * 1e9
	}
	m["machine.read_choices"] = float64(snap.Machine.ReadChoices)
	m["machine.stale_reads"] = float64(snap.Machine.StaleReads)
	x := snap.Explore
	m["explore.prefixes"] = float64(x.Prefixes)
	m["explore.frontier_peak"] = float64(x.FrontierPeak)
	m["por.races_reversed"] = float64(x.PORRacesReversed)
	m["por.stale_reads_skipped"] = float64(x.PORStaleReadsSkipped)
	m["plan.checks"] = float64(x.PlanChecks)
	m["plan.conflicts_refuted"] = float64(x.PlanConflictsRefuted)
	m["dedup.states"] = float64(x.DedupStates)
	m["dedup.hits"] = float64(x.DedupHits)
	if n := x.DedupStates + x.DedupHits; n > 0 {
		m["dedup.hit_ratio"] = float64(x.DedupHits) / float64(n)
	}
	m["dedup.evictions"] = float64(x.DedupEvictions)
	m["refine.disagreements"] = float64(snap.Refine.Disagreements)
	for k, v := range inst.serve {
		m[k] = v
	}

	return m, checkAttribution(self, s.verdict)
}

// Runtime metrics read at workload boundaries.
const (
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtAllocObjs  = "/gc/heap/allocs:objects"
	rtSched      = "/sched/latencies:seconds"
	rtMutexWait  = "/sync/mutex/wait/total:seconds"
)

// runtimeDelta is the change in the Go runtime's metrics over one verdict.
type runtimeDelta struct {
	gcCPU, mutexWait      float64
	gcCycles              uint64
	allocBytes, allocObjs uint64
	// schedCounts are the scheduling-latency histogram's bucket counts
	// gained over the verdict; schedBounds are its bucket boundaries.
	schedCounts []uint64
	schedBounds []float64
}

func readRuntime() runtimeDelta {
	ss := []metrics.Sample{{Name: rtGCCPU}, {Name: rtGCCycles}, {Name: rtAllocBytes}, {Name: rtAllocObjs}, {Name: rtSched}, {Name: rtMutexWait}}
	metrics.Read(ss)
	h := ss[4].Value.Float64Histogram()
	return runtimeDelta{
		gcCPU:       ss[0].Value.Float64(),
		gcCycles:    ss[1].Value.Uint64(),
		allocBytes:  ss[2].Value.Uint64(),
		allocObjs:   ss[3].Value.Uint64(),
		schedCounts: append([]uint64(nil), h.Counts...),
		schedBounds: h.Buckets,
		mutexWait:   ss[5].Value.Float64(),
	}
}

// sub returns r minus an earlier reading.
func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	d := r
	d.gcCPU -= o.gcCPU
	d.mutexWait -= o.mutexWait
	d.gcCycles -= o.gcCycles
	d.allocBytes -= o.allocBytes
	d.allocObjs -= o.allocObjs
	d.schedCounts = make([]uint64, len(r.schedCounts))
	for i := range r.schedCounts {
		d.schedCounts[i] = r.schedCounts[i] - o.schedCounts[i]
	}
	return d
}

// schedQuantile returns the q-quantile of the scheduling latencies in the
// delta, in seconds, as the upper boundary of the bucket holding it.
func (r runtimeDelta) schedQuantile(q float64) float64 {
	var total uint64
	for _, c := range r.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen uint64
	for i, c := range r.schedCounts {
		seen += c
		if float64(seen) >= target {
			if hi := r.schedBounds[i+1]; hi < 1e300 {
				return hi
			}
			return r.schedBounds[i]
		}
	}
	return r.schedBounds[len(r.schedBounds)-1]
}

// runtimeMetrics reduces the untraced iterations' runtime deltas to their
// medians.
func runtimeMetrics(ss []sample) map[string]float64 {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	for _, s := range ss {
		execs := float64(max(s.execs(), 1))
		add("gc.cpu_s", s.rt.gcCPU)
		add("gc.cycles", float64(s.rt.gcCycles))
		add("alloc.bytes_per_exec", float64(s.rt.allocBytes)/execs)
		add("alloc.objects_per_exec", float64(s.rt.allocObjs)/execs)
		add("sched.latency_p50_us", s.rt.schedQuantile(0.5)*1e6)
		add("sched.latency_p99_us", s.rt.schedQuantile(0.99)*1e6)
		add("mutex.wait_s", s.rt.mutexWait)
	}
	m := map[string]float64{}
	for k, vs := range per {
		m[k] = median(vs)
	}
	return m
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF into a valid struct fails only on a kernel bug.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() float64 {
	ru := rusage()
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMiB returns the process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }
