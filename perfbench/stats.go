package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
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

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read around each timed region. Reading them does not
// stop the world, unlike runtime.ReadMemStats.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mHeapObjs   = "/memory/classes/heap/objects:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
)

// rtSample is one reading of the runtime counters the benchmark uses.
type rtSample struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU                           float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mAllocObjs}, {Name: mGCCycles}, {Name: mGCCPU}}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

// heapSampler polls the bytes held by heap objects (live and not yet
// swept) every millisecond and keeps the peak, so a timed region's peak
// heap can be reported without stopping the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.poll()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.poll()
			}
		}
	}()
	return h
}

func (h *heapSampler) poll() {
	s := []metrics.Sample{{Name: mHeapObjs}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	h.poll()
	return h.peak
}

// cpuModel names the host CPU, from /proc/cpuinfo where the kernel has it.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
