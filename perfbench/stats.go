package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs. It refuses (ok is
// false) when fewer than minTail samples lie strictly beyond that rank: a
// tail percentile resting on a handful of samples is noise, not a number.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if n-1-rank < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], true
}

// ms and secs convert durations to the float units metrics are reported in.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name may be used as a metric name.
func validName(name string) bool { return metricName.MatchString(name) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's reported values by name.
type metrics map[string]metric

// set records one metric; an invalid name, a duplicate or a non-finite value
// is a programming error in the benchmark and panics.
func (m metrics) set(name, unit string, v float64) {
	if !validName(name) {
		panic(fmt.Sprintf("perfbench: invalid metric name %q", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("perfbench: metric %q reported twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %q is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// quiesce forces a collection and returns freed memory to the OS, so a timed
// phase starts from a lean heap and peak RSS reflects the phase, not
// leftovers of the one before.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets the kernel's resident-set high-water mark (VmHWM) to
// the current RSS, so a later peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runtimeDelta measures heap allocation and GC cycles over a phase.
type runtimeDelta struct{ alloc, gcs uint64 }

func runtimeNow() runtimeDelta {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return runtimeDelta{alloc: st.TotalAlloc, gcs: uint64(st.NumGC)}
}

// since returns the MiB allocated and the GC cycles completed since r.
func (r runtimeDelta) since() (allocMB, gcCycles float64) {
	now := runtimeNow()
	return float64(now.alloc-r.alloc) / (1 << 20), float64(now.gcs - r.gcs)
}
