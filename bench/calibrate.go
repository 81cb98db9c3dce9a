package main

import (
	"bufio"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// cRef is the reference kernel time, in seconds: the median kernel() on
// the machine the benchmark was calibrated on (an Intel Xeon guest with
// two vCPUs). Every reported time is wall × cRef / kernel, so times stay
// in seconds on that machine and absorb the host's speed drift, which
// reaches ±20% over tens of seconds there and shows in CPU time as well
// as wall time. No hardware counters exist on that host to count work
// instead.
const cRef = 0.165

// kernelN and kernelRounds size the calibration kernel to about 150 ms
// on that machine. One 50 ms round varies 10–25% from the next, more
// than a whole sample does; three rounds average enough of the host's
// fluctuation that calibrated medians repeat about twice as closely.
const (
	kernelN      = 5 << 16
	kernelRounds = 3
)

// The kernel's map and slice are allocated once and reused, so the
// kernel itself allocates nothing: its time must not depend on how much
// heap the workload retains between samples.
var (
	kernelMap  = make(map[uint64]uint64, kernelN)
	kernelKeys = make([]uint64, kernelN)
)

// kernel runs the fixed calibration work — rounds of hashed map inserts
// over a xorshift sequence, then a sort — and returns its wall time. The
// work is the same on every call; only the machine's speed moves the
// result.
func kernel() time.Duration {
	start := time.Now()
	for r := 0; r < kernelRounds; r++ {
		clear(kernelMap)
		x := uint64(0x9E3779B97F4A7C15)
		for i := range kernelKeys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			kernelMap[x&0xFFFFF] += x
			kernelKeys[i] = x
		}
		slices.Sort(kernelKeys)
	}
	return time.Since(start)
}

// calibrate converts a raw wall time into calibrated seconds, given the
// kernel time (in seconds) measured around it.
func calibrate(raw time.Duration, kernel float64) float64 {
	return raw.Seconds() * cRef / kernel
}

// fingerprint identifies the machine and the run's calibration; every
// output carries it.
type fingerprint struct {
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	CRef         float64 `json:"c_ref_s"`
	KernelMedian float64 `json:"kernel_median_s"`
	KernelIQR    float64 `json:"kernel_iqr_share"`
}

func newFingerprint(kernels []float64) fingerprint {
	med, p25, p75 := quartiles(kernels)
	fp := fingerprint{
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Go:           runtime.Version(),
		CRef:         cRef,
		KernelMedian: med,
	}
	if med > 0 {
		fp.KernelIQR = (p75 - p25) / med
	}
	return fp
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quartiles returns the median and the first and third quartiles of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default,
// exclusive method), so spreads printed here match the ones a Python
// script computes from the same numbers. One value is its own quartiles;
// none gives zeros.
func quartiles(xs []float64) (med, p25, p75 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(2), q(1), q(3)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	med, _, _ := quartiles(xs)
	return med
}
