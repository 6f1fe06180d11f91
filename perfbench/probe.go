package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// probeRefMs is the host probe's time on the reference host, a shared
// 2-vCPU Xeon VM at 2.1 GHz, in its fast phase.
const probeRefMs = 15.0

// hostProbe is a fixed kernel that runs none of the simulator's code:
// a pointer chase through 8 MiB, hash-map updates and a sort. The shared
// host's speed drifts by ±15 % over minutes; the probe's time tracks
// that drift, and the end-to-end host times are reported at the
// reference host's speed by scaling each by probeRefMs ÷ the probe time
// measured right after it. A change to the simulator moves the scaled
// times exactly as it moves the raw ones.
type hostProbe struct {
	chase []uint32 // off the Go heap, so the probe leaves GC pacing alone
	mem   []byte   // the mapping behind chase
	m     map[uint64]uint64
	ints  []int
	raw   []float64 // every probe time, ms
	sink  uint64
}

func newHostProbe() (*hostProbe, error) {
	const n = 1 << 21
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &hostProbe{
		mem:   mem,
		chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n),
		m:     make(map[uint64]uint64, 1024),
		ints:  make([]int, 30000),
	}
	x := uint32(12345)
	for i := range p.chase {
		x = x*1664525 + 1013904223
		p.chase[i] = x & (n - 1)
	}
	return p, nil
}

func (p *hostProbe) close() error { return syscall.Munmap(p.mem) }

// scale runs the probe on a collected heap and returns probeRefMs ÷ its
// time: the factor that turns a host time measured now into one at
// the reference speed.
func (p *hostProbe) scale() float64 {
	runtime.GC()
	t0 := time.Now()
	var acc uint64
	at := uint32(0)
	for i := 0; i < 60000; i++ {
		at = p.chase[at]
		acc += uint64(at)
	}
	clear(p.m)
	for i := uint64(0); i < 60000; i++ {
		p.m[(i*0x9e3779b97f4a7c15)>>40] += i
	}
	for i := range p.ints {
		p.ints[i] = int((uint64(i) * 0x9e3779b97f4a7c15) >> 33)
	}
	sort.Ints(p.ints)
	p.sink = acc + uint64(len(p.m)) + uint64(p.ints[100])
	ms := float64(time.Since(t0)) / 1e6
	p.raw = append(p.raw, ms)
	return probeRefMs / ms
}
