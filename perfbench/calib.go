package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on drifts in speed over minutes: on a
// shared 2-vCPU VM the verdict of one unchanged workload moved by a
// quarter between runs a few minutes apart, and a fixed allocation- and
// pointer-heavy kernel moved with it. The hypervisor also takes the vCPUs
// away for seconds at a time (the steal column of /proc/stat). So every
// untraced iteration also times that kernel in a fresh process, and
// verdict_s and cpu_s are reported in host-corrected seconds: the
// verdict's time, less the time stolen from it, divided by the kernel's
// time around it, less the time stolen from that, times the kernel's
// reference time below. The raw wall and CPU times are reported per layer.

// calRefWall and calRefCPU are the reference host's calibration times:
// a reported verdict_s is the verdict's wall time on a host where the
// kernel takes calRefWall seconds of wall time, and cpu_s its CPU time on
// a host where the kernel takes calRefCPU seconds of CPU.
const (
	calRefWall = 0.5
	calRefCPU  = 1.0
)

// calRounds sizes the kernel (about half a second on a 2-vCPU VM).
const calRounds = 400

// calLine prefixes what a --calibrate process prints: the kernel's wall
// and CPU seconds.
const calLine = "perfbench: calibrate"

// hostCal is one calibration: the kernel's wall and CPU seconds and the
// steal seconds over it.
type hostCal struct{ wall, cpu, steal float64 }

// mean returns the average of two calibrations.
func (c hostCal) mean(o hostCal) hostCal {
	return hostCal{(c.wall + o.wall) / 2, (c.cpu + o.cpu) / 2, (c.steal + o.steal) / 2}
}

// userHZ is the unit of the counters in /proc/stat.
const userHZ = 100

// stealSeconds returns the time the hypervisor ran something else while
// this VM's vCPUs were ready to run, summed over vCPUs: the steal column
// of /proc/stat. It is 0 where that column is missing.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / userHZ
}

// unstolen returns wall less the steal that delayed it. Steal is summed
// over vCPUs, and the workers keep at most `workers` of them busy, so
// that many share it. The credit is capped at half the wall time, for
// hosts where vCPUs the workload does not use are stolen from too.
func unstolen(wall, steal float64) float64 {
	return max(wall-steal/float64(min(runtime.NumCPU(), workers)), wall/2)
}

var calSink uint64

type calNode struct {
	next *calNode
	vals []uint32
	key  uint64
}

// calKernel is the calibration work: on each of the workload's workers,
// build a pointer-linked, map-indexed list of small allocations, walk it,
// and hand values to a partner goroutine over unbuffered channels. It
// shares no code with the checker, so a change to the checker cannot
// move it; it exercises what the checker spends its time on (the
// allocator and collector, maps, pointer chasing, channel handoffs), so
// it moves when the host's memory system or scheduler slows the checker.
func calKernel(rounds int) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req, resp := make(chan uint64), make(chan uint64)
			go func() {
				for v := range req {
					resp <- v*31 + 7
				}
			}()
			x, sum := uint64(w+1), uint64(0)
			for r := 0; r < rounds; r++ {
				idx := make(map[uint64]*calNode, 64)
				var head *calNode
				for i := 0; i < 4000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					n := &calNode{next: head, key: x, vals: make([]uint32, 1+i%6)}
					n.vals[0] = uint32(i)
					head = n
					idx[x%8192] = n
				}
				s := uint64(0)
				for n := head; n != nil; n = n.next {
					if m := idx[n.key%8192]; m != nil {
						s += uint64(m.vals[0])
					}
				}
				for i := 0; i < 400; i++ {
					req <- s + uint64(i)
					s = <-resp
				}
				sum += s
			}
			close(req)
			mu.Lock()
			calSink += sum
			mu.Unlock()
		}(w)
	}
	wg.Wait()
}

// runCalibration times the kernel in this process and prints the result
// line a --calibrate process reports.
func runCalibration() {
	cpu0, st0, t0 := cpuSeconds(), stealSeconds(), time.Now()
	calKernel(calRounds)
	fmt.Println(hostCal{time.Since(t0).Seconds(), cpuSeconds() - cpu0, stealSeconds() - st0}.line())
}

// line renders a calibration as a --calibrate process prints it.
func (c hostCal) line() string {
	return fmt.Sprintf("%s %.9f %.9f %.9f", calLine, c.wall, c.cpu, c.steal)
}

// parseCal reads a line a --calibrate process printed.
func parseCal(line string) (hostCal, error) {
	f := strings.Fields(strings.TrimPrefix(line, calLine))
	if !strings.HasPrefix(line, calLine+" ") || len(f) != 3 {
		return hostCal{}, fmt.Errorf("calibration process printed %q", line)
	}
	wall, err1 := strconv.ParseFloat(f[0], 64)
	cpu, err2 := strconv.ParseFloat(f[1], 64)
	steal, err3 := strconv.ParseFloat(f[2], 64)
	if err1 != nil || err2 != nil || err3 != nil || !(wall > 0) || !(cpu > 0) || !(steal >= 0) {
		return hostCal{}, fmt.Errorf("calibration process printed %q", line)
	}
	return hostCal{wall, cpu, steal}, nil
}

// calibrate times the kernel in a fresh process, so nothing a workload
// leaves in this process's heap or runtime can slow it.
func calibrate(e *env) (hostCal, error) {
	exe, err := os.Executable()
	if err != nil {
		return hostCal{}, err
	}
	line, _, err := child(exe, "--calibrate", "--workload", e.workload, "--root", e.root, "--out", e.out)
	if err != nil {
		return hostCal{}, fmt.Errorf("calibration process: %w", err)
	}
	return parseCal(line)
}

// corrected returns a sample's verdict wall and CPU seconds scaled to the
// reference host: divided by the kernel's times around the verdict, times
// the reference times. Wall times are taken less their steal first; CPU
// times exclude steal already.
func (s sample) corrected() (wall, cpu float64) {
	return unstolen(s.verdict, s.steal) / unstolen(s.host.wall, s.host.steal) * calRefWall,
		s.cpu / s.host.cpu * calRefCPU
}
