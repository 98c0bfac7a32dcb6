package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host speed. This benchmark runs on shared virtual machines whose
// speed drifts with what the neighbours do, in two ways that longer
// runs do not average out.
//
//   - Every instruction gets slower: on a 2-vCPU Intel Xeon host one
//     paper regeneration took 6.3 s of wall and 9.0 s of CPU time for
//     minutes on end, then 3.5 s and 5.0 s a few minutes later, with
//     under 2% of the host's time counted as stolen.
//   - Waking up gets slower: while the host is oversubscribed, a vCPU
//     that went idle waits to be scheduled again (the guest counts the
//     wait as stolen time), so request/reply chains stall. Ingest
//     rounds then took two to three times longer while CPU-bound code
//     slowed by a tenth.
//
// So the benchmark measures the host's speed as it goes. Between units
// of work it runs two fixed reference kernels: a compute kernel
// (refKernel) and a round-trip kernel (roundTrips). Every time and
// rate it reports is scaled to the host speed at which the kernels
// take refNominal, each unit by the mean of the samples taken just
// before and just after it: CPU times by the compute kernel's CPU
// time, wall times and rates by the compute kernel's wall time, or,
// for workloads whose units wait on request/reply chains, by the
// round-trip kernel's. The kernels are the benchmark's own code, so no
// change to the program can move them. The raw medians stay in the
// result file.
const (
	refWords      = 1 << 20      // 4 MiB of uint32 per compute-kernel goroutine
	refSteps      = 12_000_000   // compute-kernel steps per goroutine
	refSize       = refWords * 4 // bytes per goroutine
	refMask       = uint32(refWords) - 1
	refRoundTrips = 1000            // round trips per round-trip-kernel goroutine
	refEvery      = 2 * time.Second // least time between samples in a measuring loop
)

// refTimes are one sample's kernel times.
type refTimes struct {
	Compute   float64 `json:"compute_s"`     // compute kernel wall time
	CPU       float64 `json:"compute_cpu_s"` // compute kernel process CPU time per goroutine
	RoundTrip float64 `json:"round_trip_s"`  // round-trip kernel wall time
}

// refNominal are the kernel times at the reference host speed, about
// those of the 2-vCPU Intel Xeon host above at its fastest.
var refNominal = refTimes{Compute: 0.18, CPU: 0.18, RoundTrip: 0.07}

// refSample is one sample: when it ended, and its kernel times.
type refSample struct {
	at time.Time
	refTimes
}

// hostSpeed records kernel samples through a run. A nil *hostSpeed
// samples nothing, so traced runs, which report no end-to-end times,
// pay no kernel time.
type hostSpeed struct {
	waits   bool // wall times and rates scale by the round-trip kernel
	samples []refSample
	echo    *httptest.Server // the round-trip kernel's server, started by the first sample
	client  *http.Client
}

// sample runs both kernels once and records them.
func (h *hostSpeed) sample() error {
	if h == nil {
		return nil
	}
	wall, cpu := refKernel()
	rt, err := h.roundTrips()
	if err != nil {
		return fmt.Errorf("round-trip kernel: %w", err)
	}
	h.samples = append(h.samples, refSample{at: time.Now(), refTimes: refTimes{Compute: wall, CPU: cpu, RoundTrip: rt}})
	return nil
}

// between samples when at least refEvery has passed since the last
// sample, or when there is none; measuring loops call it before each
// unit.
func (h *hostSpeed) between() error {
	if h != nil && (len(h.samples) == 0 || time.Since(h.samples[len(h.samples)-1].at) >= refEvery) {
		return h.sample()
	}
	return nil
}

// close stops the round-trip kernel's server.
func (h *hostSpeed) close() {
	if h != nil && h.echo != nil {
		h.client.CloseIdleConnections()
		h.echo.Close()
	}
}

// scales are the factors that take a wall time and a CPU time
// measured from t0 to t1 to the reference host speed: the nominal
// kernel time over the mean kernel time of the last sample at or
// before t0 and the first at or after t1 (whichever exist); 1 if
// neither exists.
func (h *hostSpeed) scales(t0, t1 time.Time) (wall, cpu float64) {
	if h == nil {
		return 1, 1
	}
	s := h.samples
	var near []refSample
	// The last sample that ended at or before t0.
	if i := sort.Search(len(s), func(i int) bool { return s[i].at.After(t0) }) - 1; i >= 0 {
		near = append(near, s[i])
	}
	// The first sample that ended at or after t1.
	if i := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t1) }); i < len(s) {
		near = append(near, s[i])
	}
	if len(near) == 0 {
		return 1, 1
	}
	m := meanTimes(near)
	if h.waits {
		return refNominal.RoundTrip / m.RoundTrip, refNominal.CPU / m.CPU
	}
	return refNominal.Compute / m.Compute, refNominal.CPU / m.CPU
}

// meanTimes is the mean of the samples' kernel times.
func meanTimes(s []refSample) refTimes {
	var m refTimes
	for _, r := range s {
		m.Compute += r.Compute
		m.CPU += r.CPU
		m.RoundTrip += r.RoundTrip
	}
	if n := float64(len(s)); n > 0 {
		m.Compute, m.CPU, m.RoundTrip = m.Compute/n, m.CPU/n, m.RoundTrip/n
	}
	return m
}

// roundTrips is the round-trip kernel: each of GOMAXPROCS goroutines
// posts 256 bytes to a loopback HTTP echo handler refRoundTrips times,
// one request after another, as the ingest clients do; it returns the
// wall time. Most of that time is goroutines waking one another
// through the network poller, so it slows with the host's wake-up
// latency as a request/reply chain does.
func (h *hostSpeed) roundTrips() (float64, error) {
	if h.echo == nil {
		h.echo = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(w, r.Body) //nolint:errcheck // a failed echo fails the client's check
		}))
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 64
		h.client = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	}
	body := bytes.Repeat([]byte{'x'}, 256)
	n := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < refRoundTrips && errs[g] == nil; i++ {
				resp, err := h.client.Post(h.echo.URL, "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs[g] = err
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && !bytes.Equal(got, body) {
					err = fmt.Errorf("echo returned %d bytes, sent %d", len(got), len(body))
				}
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	return time.Since(t0).Seconds(), errors.Join(errs...)
}

// refKernel is the compute kernel; it returns its wall time and the
// process CPU time it took per goroutine. Each of GOMAXPROCS goroutines walks a
// private 4 MiB table in a pseudo-random order, with data-dependent branches and
// one store in sixteen steps: the branchy, cache-missing integer work
// an interpreter and a profile store do. The tables are mapped outside
// the Go heap and unmapped before returning, so the kernel neither
// triggers nor slows the program's garbage collection and leaves no
// resident memory behind for the next unit's peak-RSS mark.
func refKernel() (wall, cpu float64) {
	n := runtime.GOMAXPROCS(0)
	tables := make([][]uint32, n)
	for g := range tables {
		mem, err := syscall.Mmap(-1, 0, refSize, syscall.PROT_READ|syscall.PROT_WRITE,
			syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			// Fall back to the heap; the kernel's work is the same.
			tables[g] = make([]uint32, refWords)
		} else {
			defer syscall.Munmap(mem) //nolint:errcheck // an unmapped table is only address space
			tables[g] = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords)
		}
		for i := range tables[g] {
			tables[g][i] = uint32(i)*2654435761 ^ uint32(g)
		}
	}
	sums := make([]uint32, n)
	t0, c0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t := tables[g]
			x, acc := uint32(g+1), uint32(0)
			for i := 0; i < refSteps; i++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				v := t[x&refMask]
				switch {
				case v&1 == 0:
					acc += v >> 3
				case v&6 == 2:
					acc ^= v
				default:
					acc -= x
				}
				if i&15 == 0 {
					t[(x>>7)&refMask] = acc
				}
			}
			sums[g] = acc
		}(g)
	}
	wg.Wait()
	refSink = sums[0]
	return time.Since(t0).Seconds(), (cpuTime() - c0).Seconds() / float64(n)
}

// refSink keeps the kernel's result live.
var refSink uint32
