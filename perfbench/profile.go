package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path"
	"strconv"
	"strings"
	"time"
)

// Profile buckets. Every CPU sample lands in exactly one, and their
// shares are reported as prof.<bucket>.
var profBuckets = []string{
	"chan_handoff", "machine", "memory", "por", "dedup",
	"spec", "refine", "serve", "gc_alloc", "other",
}

// funcLayers maps runtime, standard-library and benchmark function-name
// prefixes to a bucket. Channel, select and goroutine park/schedule code is the
// scheduler handoff between the machine's threads and its controller;
// allocation and collection are gc_alloc. Helpers such as memmove or map
// access are left out, so a sample in them goes to its caller's bucket.
var funcLayers = []struct{ prefix, bucket string }{
	{"runtime.selectgo", "chan_handoff"},
	{"runtime.selectnb", "chan_handoff"},
	{"runtime.chansend", "chan_handoff"},
	{"runtime.chanrecv", "chan_handoff"},
	{"runtime.closechan", "chan_handoff"},
	{"runtime.send", "chan_handoff"},
	{"runtime.recv", "chan_handoff"},
	{"runtime.sellock", "chan_handoff"},
	{"runtime.selunlock", "chan_handoff"},
	{"runtime.gopark", "chan_handoff"},
	{"runtime.goready", "chan_handoff"},
	{"runtime.ready", "chan_handoff"},
	{"runtime.park_m", "chan_handoff"},
	{"runtime.schedule", "chan_handoff"},
	{"runtime.findRunnable", "chan_handoff"},
	{"runtime.execute", "chan_handoff"},
	{"runtime.gogo", "chan_handoff"},
	{"runtime.mcall", "chan_handoff"},
	{"runtime.stopm", "chan_handoff"},
	{"runtime.startm", "chan_handoff"},
	{"runtime.wakep", "chan_handoff"},
	{"runtime.runq", "chan_handoff"},
	{"runtime.coro", "chan_handoff"},
	{"runtime.mallocgc", "gc_alloc"},
	{"runtime.newobject", "gc_alloc"},
	{"runtime.newarray", "gc_alloc"},
	{"runtime.makeslice", "gc_alloc"},
	{"runtime.growslice", "gc_alloc"},
	{"runtime.makemap", "gc_alloc"},
	{"runtime.gcBgMarkWorker", "gc_alloc"},
	{"runtime.gcDrain", "gc_alloc"},
	{"runtime.gcAssistAlloc", "gc_alloc"},
	{"runtime.gcStart", "gc_alloc"},
	{"runtime.gcMark", "gc_alloc"},
	{"runtime.scanobject", "gc_alloc"},
	{"runtime.scanblock", "gc_alloc"},
	{"runtime.scanstack", "gc_alloc"},
	{"runtime.greyobject", "gc_alloc"},
	{"runtime.markroot", "gc_alloc"},
	{"runtime.wbBufFlush", "gc_alloc"},
	{"runtime.gcWriteBarrier", "gc_alloc"},
	{"runtime.bulkBarrier", "gc_alloc"},
	{"runtime.bgsweep", "gc_alloc"},
	{"runtime.bgscavenge", "gc_alloc"},
	{"runtime.sweepone", "gc_alloc"},
	{"runtime.(*gcWork)", "gc_alloc"},
	{"runtime.(*mheap)", "gc_alloc"},
	{"runtime.(*mcache)", "gc_alloc"},
	{"runtime.(*mcentral)", "gc_alloc"},
	{"runtime.(*sweepLocked)", "gc_alloc"},
	{"net/http.", "serve"},
	{"net.", "serve"},
	// The benchmark's own code: span recording in traced runs.
	{"main.", "other"},
}

// pkgLayers maps every compass/internal package, and the files of a
// package that belong to another layer, to a bucket. The most specific
// entry wins: "pkg/file.go" over "pkg" over a parent package. The
// simulated libraries run as machine threads, so their code is machine
// time; view is the memory model's clocks; core holds the event graphs
// the spec checkers judge.
var pkgLayers = map[string]string{
	"compass/internal/analysis/footprint":  "memory",
	"compass/internal/analysis/staticplan": "por",
	"compass/internal/analyzers":           "other",
	"compass/internal/check":               "machine",
	"compass/internal/cli":                 "other",
	"compass/internal/core":                "spec",
	"compass/internal/deque":               "machine",
	"compass/internal/exchanger":           "machine",
	"compass/internal/experiments":         "other",
	"compass/internal/fuzz":                "other",
	"compass/internal/litmus":              "machine",
	"compass/internal/lock":                "machine",
	"compass/internal/machine":             "machine",
	"compass/internal/machine/dedup.go":    "dedup",
	"compass/internal/machine/por.go":      "por",
	"compass/internal/memory":              "memory",
	"compass/internal/memory/access.go":    "por",
	"compass/internal/memory/canon.go":     "dedup",
	"compass/internal/memory/conflict.go":  "por",
	"compass/internal/memory/plan.go":      "por",
	"compass/internal/queue":               "machine",
	"compass/internal/refine":              "refine",
	"compass/internal/serve":               "serve",
	"compass/internal/spec":                "spec",
	"compass/internal/stack":               "machine",
	"compass/internal/telemetry":           "machine",
	"compass/internal/view":                "memory",
}

// frameBucket returns the bucket of one stack frame, or "" when the frame
// has none and the sample should be charged to its caller.
func frameBucket(fn, file string) string {
	for _, r := range funcLayers {
		if strings.HasPrefix(fn, r.prefix) {
			return r.bucket
		}
	}
	pkg := funcPackage(fn)
	if b, ok := pkgLayers[pkg+"/"+path.Base(file)]; ok {
		return b
	}
	for p := pkg; p != "." && p != "/" && p != ""; p = path.Dir(p) {
		if b, ok := pkgLayers[p]; ok {
			return b
		}
	}
	return ""
}

// funcPackage returns the import path of a symbolized function name such
// as "compass/internal/machine.(*Runner).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profileShares buckets the CPU samples of one or more profiles by layer
// and returns each bucket's share as prof.<bucket>. It reads the
// profiles, merged, through the toolchain's pprof.
func profileShares(profiles ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces", "-lines"}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTraces(string(out))
}

// bucketTraces parses `go tool pprof -traces -lines` output: blocks
// separated by dashed lines, each opening with the sample value and the
// leaf frame, followed by its callers, one "function file:line" per
// line. A sample goes to the bucket of the first frame from the leaf up
// that has one, and to "other" when none does.
func bucketTraces(text string) (map[string]float64, error) {
	weight := map[string]float64{}
	total := 0.0
	var value float64
	bucket := ""
	inBlock, first := false, false
	flush := func() {
		if inBlock && !first {
			if bucket == "" {
				bucket = "other"
			}
			weight[bucket] += value
			total += value
		}
		bucket, value = "", 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock, first = true, true
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		if first {
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			value, fields, first = v, fields[1:], false
		}
		if bucket == "" && len(fields) > 0 {
			file := ""
			if len(fields) > 1 {
				file, _, _ = strings.Cut(fields[1], ":")
			}
			bucket = frameBucket(fields[0], file)
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	shares := map[string]float64{}
	for _, b := range profBuckets {
		shares["prof."+b] = weight[b] / total
	}
	return shares, nil
}

// parseSampleValue parses a pprof CPU sample value such as "10ms" or
// "1.20s".
func parseSampleValue(s string) (float64, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return strconv.ParseFloat(s, 64)
}
