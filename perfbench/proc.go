package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch reads wall-clock and process CPU time together. The CPU
// time (user plus system, all threads) excludes what the hypervisor
// steals: the kernel accounts steal separately.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

// startWatch starts a stopwatch.
func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

// elapsed returns the wall-clock and CPU seconds since the start.
func (s stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(s.wall).Seconds(), (cpuTime() - s.cpu).Seconds()
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// resident-set high-water mark, so the peak covers only what follows.
// It fails where the kernel refuses the reset (no clear_refs), which
// would leave the lifetime peak in place.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("restarting the resident-set peak: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM, the peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcSnap is a reading of the runtime's GC counters.
type gcSnap struct {
	cycles uint64
	pauses *metrics.Float64Histogram
}

// readGC samples the GC cycle count and pause histogram.
func readGC() gcSnap {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	g := gcSnap{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[1].Value.Float64Histogram()
	}
	return g
}

// gcSince returns the GC cycles since before and the p99 pause in
// microseconds among the pauses since before (bucket upper bounds).
func gcSince(before gcSnap) (cycles float64, pauseP99 float64) {
	after := readGC()
	cycles = float64(after.cycles - before.cycles)
	if after.pauses == nil || before.pauses == nil {
		return cycles, 0
	}
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return cycles, 0
	}
	want := (total*99 + 99) / 100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			return cycles, after.pauses.Buckets[i+1] * 1e6
		}
	}
	return cycles, 0
}

// heapMB is the live heap (objects) in MB.
func heapMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocs is the process's cumulative allocation count and bytes.
func allocs() (n, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// fsType names the filesystem holding dir, for the report stamp.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (built outside a git checkout)"
	}
	return rev + dirty
}

// hostTicks reads the machine-wide CPU tick counters from /proc/stat:
// all ticks and the ticks the hypervisor stole from this guest.
func hostTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
