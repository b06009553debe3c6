package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilStatsIsFree(t *testing.T) {
	var s *Stats
	// Every recording method must be a no-op on nil, not a panic.
	s.ExecDone(0, 10)
	s.ReadChoice(3, 1)
	s.ThreadPick(2)
	s.PrefixClaimed(4)
	s.ChildrenPushed(2, 7)
	s.ExploreEarlyStop()
	s.ExploreDepthCapped()
	s.Merge(New())
	New().Merge(s)
	snap := s.Snapshot()
	if snap.Machine.Execs != 0 || snap.Schema != SnapshotSchema {
		t.Fatalf("nil snapshot: %+v", snap)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.ExecDone(0, 10)
		s.ReadChoice(3, 1)
		s.ThreadPick(2)
	}); n != 0 {
		t.Fatalf("nil stats allocated %.1f per run", n)
	}
}

func TestEnabledStatsDoNotAllocatePerStep(t *testing.T) {
	s := New()
	if n := testing.AllocsPerRun(100, func() {
		s.ReadChoice(3, 1)
		s.ThreadPick(2)
		s.ExecDone(0, 10)
	}); n != 0 {
		t.Fatalf("enabled stats allocated %.1f per run", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1024, -5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 9 || s.Max != 1024 {
		t.Fatalf("count=%d max=%d", s.Count, s.Max)
	}
	// Expected buckets: {0:2 (v=0,-5)}, {1:1}, {2-3:2}, {4-7:2}, {8-15:1}, {1024-2047:1}
	want := []Bucket{
		{0, 0, 2}, {1, 1, 1}, {2, 3, 2}, {4, 7, 2}, {8, 15, 1}, {1024, 2047, 1},
	}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
}

func TestStaleRateAndFanout(t *testing.T) {
	s := New()
	s.ReadChoice(2, 1) // latest
	s.ReadChoice(2, 0) // stale
	s.ReadChoice(4, 3) // latest
	s.ReadChoice(4, 0) // stale
	snap := s.Snapshot()
	if snap.Machine.ReadChoices != 4 || snap.Machine.StaleReads != 2 {
		t.Fatalf("choices=%d stale=%d", snap.Machine.ReadChoices, snap.Machine.StaleReads)
	}
	if snap.Machine.StaleRate != 0.5 {
		t.Fatalf("stale rate = %v", snap.Machine.StaleRate)
	}
	if snap.Machine.ReadFanout.Sum != 12 {
		t.Fatalf("fanout sum = %d", snap.Machine.ReadFanout.Sum)
	}
}

func TestMergeEqualsConcurrentSharing(t *testing.T) {
	// Recording into per-worker stats then merging must equal recording
	// into one shared Stats — the invariant check.runParallel relies on.
	shared := New()
	var wg sync.WaitGroup
	workers := make([]*Stats, 4)
	for w := range workers {
		workers[w] = New()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				workers[w].ExecDone(uint8(i%4), i%97)
				workers[w].ReadChoice(2+i%3, i%2)
				workers[w].ThreadPick(i % 6)
				shared.ExecDone(uint8(i%4), i%97)
				shared.ReadChoice(2+i%3, i%2)
				shared.ThreadPick(i % 6)
			}
		}(w)
	}
	wg.Wait()
	merged := New()
	for _, w := range workers {
		merged.Merge(w)
	}
	if !reflect.DeepEqual(merged.Snapshot(), shared.Snapshot()) {
		t.Fatalf("merged != shared:\n%+v\n%+v", merged.Snapshot(), shared.Snapshot())
	}
}

func TestSnapshotJSONRoundTripAndValidate(t *testing.T) {
	s := New()
	s.ExecDone(0, 100)
	s.ExecDone(2, 50) // budget
	s.ReadChoice(3, 0)
	s.ThreadPick(0)
	s.ThreadPick(1)
	s.PrefixClaimed(2)
	s.ChildrenPushed(3, 3)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshotJSON(buf.Bytes()); err != nil {
		t.Fatalf("emitted snapshot does not validate: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Machine.ExecsByStatus["ok"] != 1 || snap.Machine.ExecsByStatus["budget"] != 1 {
		t.Fatalf("by-status: %v", snap.Machine.ExecsByStatus)
	}
	if len(snap.Machine.ThreadPicks) != 2 {
		t.Fatalf("thread picks: %v", snap.Machine.ThreadPicks)
	}
}

func TestValidateSnapshotRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"wrong schema":   `{"schema":"nope","machine":{"execs_by_status":{},"execs":0,"steps":0,"steps_per_exec":{"count":0,"sum":0,"max":0,"mean":0},"read_choices":0,"stale_reads":0,"stale_rate":0,"read_fanout":{"count":0,"sum":0,"max":0,"mean":0}},"explore":{"prefixes":0,"children":0,"prefix_depth":{"count":0,"sum":0,"max":0,"mean":0},"frontier_peak":0,"early_stops":0,"depth_capped":0},"fuzz":{"programs":0,"execs":0,"discarded":0,"failures":0,"shrink_attempts":0,"shrink_accepted":0,"artifacts":0}}`,
		"unknown status": `{"schema":"compass/telemetry/v3","machine":{"execs_by_status":{"weird":1},"execs":1,"steps":0,"steps_per_exec":{"count":1,"sum":0,"max":0,"mean":0},"read_choices":0,"stale_reads":0,"stale_rate":0,"read_fanout":{"count":0,"sum":0,"max":0,"mean":0}},"explore":{"prefixes":0,"children":0,"prefix_depth":{"count":0,"sum":0,"max":0,"mean":0},"frontier_peak":0,"early_stops":0,"depth_capped":0},"fuzz":{"programs":0,"execs":0,"discarded":0,"failures":0,"shrink_attempts":0,"shrink_accepted":0,"artifacts":0}}`,
		"total mismatch": `{"schema":"compass/telemetry/v3","machine":{"execs_by_status":{"ok":2},"execs":1,"steps":0,"steps_per_exec":{"count":1,"sum":0,"max":0,"mean":0},"read_choices":0,"stale_reads":0,"stale_rate":0,"read_fanout":{"count":0,"sum":0,"max":0,"mean":0}},"explore":{"prefixes":0,"children":0,"prefix_depth":{"count":0,"sum":0,"max":0,"mean":0},"frontier_peak":0,"early_stops":0,"depth_capped":0},"fuzz":{"programs":0,"execs":0,"discarded":0,"failures":0,"shrink_attempts":0,"shrink_accepted":0,"artifacts":0}}`,
	}
	for name, data := range cases {
		if err := ValidateSnapshotJSON([]byte(data)); err == nil {
			t.Fatalf("%s: validation passed unexpectedly", name)
		}
	}
}

func TestChromeTraceWriteAndValidate(t *testing.T) {
	tr := NewChromeTrace()
	tr.Append(
		ProcessName(0, "litmus SB"),
		ThreadName(0, 0, "T0 (main)"),
		TraceEvent{Name: "write x", Cat: "machine", Ph: "X", TS: 1, Dur: 1, PID: 0, TID: 1,
			Args: map[string]interface{}{"mode": "rel", "val": int64(1)}},
		TraceEvent{Name: "status ok", Ph: "i", TS: 9, PID: 0, TID: 0},
	)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace does not validate: %v", err)
	}
	for _, bad := range []string{
		`{}`, // missing traceEvents
		`{"traceEvents":[{"name":"","ph":"X","ts":0,"pid":0,"tid":0}]}`,
		`{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":0,"tid":0}]}`,
		`{"traceEvents":[{"name":"x","ph":"X","ts":-1,"pid":0,"tid":0}]}`,
	} {
		if err := ValidateChromeTraceJSON([]byte(bad)); err == nil {
			t.Fatalf("bad trace validated: %s", bad)
		}
	}
}

func TestStartProgress(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	stop := StartProgress(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), time.Millisecond, func() string { return "tick" })
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "tick") {
		t.Fatalf("no progress lines: %q", out)
	}
	// Disabled variants are no-ops.
	StartProgress(nil, time.Second, func() string { return "x" })()
	StartProgress(&buf, 0, func() string { return "x" })()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
