package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// rssMB reads the process's resident set size (VmRSS) in MB, 0 when
// /proc is not there.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssEvery is how often peakRSS samples the resident set size.
const rssEvery = 20 * time.Millisecond

// peakRSS starts sampling the resident set size and returns the function
// that stops it: that returns the largest sample, the peak over that
// interval alone, where the kernel's own peak counter would also hold
// what ran before it. Calls after the first return the same peak.
func peakRSS() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64, 1)
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := rssMB()
		for {
			select {
			case <-done:
				out <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	var once sync.Once
	var peak float64
	return func() float64 {
		once.Do(func() {
			close(done)
			peak = <-out
		})
		return peak
	}
}

// Host is the fingerprint every result carries.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

func hostFingerprint(workload string, seed int64, seconds, trace int) Host {
	h := Host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
