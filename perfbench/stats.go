package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 rule numpy and spreadsheets use). xs is not
// modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// logHist is a fixed-size log-linear histogram of non-negative integers:
// each power of two is split into 16 sub-buckets, so any quantile is
// exact to within about 6%. It lets a listener record millions of
// samples per run without allocating.
type logHist struct {
	counts [64 * 16]uint64
	n      uint64
}

func (h *logHist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(uint64(v))]++
	h.n++
}

func bucketOf(v uint64) int {
	if v < 16 {
		return int(v)
	}
	exp := bits.Len64(v) - 5 // v >> exp is in [16, 32)
	return exp*16 + int(v>>exp)
}

// bucketLow is the smallest value that lands in bucket b.
func bucketLow(b int) uint64 {
	if b < 32 {
		return uint64(b)
	}
	exp := b/16 - 1
	return uint64(b-exp*16) << exp
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n-1))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return float64(bucketLow(b))
		}
	}
	return 0
}
