package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank: the
// smallest sample with at least q of the samples at or below it. Nearest
// rank always returns a measured value, never an interpolation between two.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts a copy of xs and returns its middle (mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windows splits the measured interval [start, start+n*length) into n
// equal windows and counts completions per window, so throughput can be
// reported as the median window with its spread instead of one mean that
// hides a stall.
type windows struct {
	start  time.Time
	length time.Duration
	counts []int
}

func newWindows(start time.Time, n int, length time.Duration) *windows {
	return &windows{start: start, length: length, counts: make([]int, n)}
}

func (w *windows) end() time.Time {
	return w.start.Add(time.Duration(len(w.counts)) * w.length)
}

// index returns the window t falls in, or -1 outside the measured interval
// (warm-up before it, drain after it).
func (w *windows) index(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 {
		return -1
	}
	i := int(d / w.length)
	if i >= len(w.counts) {
		return -1
	}
	return i
}

// rates returns each window's completions per second.
func (w *windows) rates() []float64 {
	out := make([]float64, len(w.counts))
	for i, c := range w.counts {
		out[i] = float64(c) / w.length.Seconds()
	}
	return out
}

// rusage reads the process's resource usage (zero if the call fails, which
// on Linux it does not for RUSAGE_SELF).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far. The whole cluster
// and the load generator share this process, so it is the cost of one
// operation across every replica plus its share of the generator.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// userCPUTime is the user-mode part of cpuTime.
func userCPUTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano())
}

// peakRSSMB is the process's high-water resident set in MiB: VmHWM of
// /proc/self/status (0 where that is unreadable), not getrusage's Maxrss,
// which a process started by `go run` inherits from the go command. The
// kernel never lowers it, so a run knows its own peak only if it raised the
// mark: a run that follows a larger one in the same process cannot.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// allocBytes is the cumulative heap allocation of the process, read from
// runtime/metrics because runtime.ReadMemStats stops the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
