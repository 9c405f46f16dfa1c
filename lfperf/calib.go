package main

import (
	"container/heap"
	"math/rand"
	"sort"
	"time"
)

// The host this benchmark runs on is shared, and its speed drifts by tens of
// percent over minutes as neighbours come and go. Every repetition
// therefore first times a fixed reference kernel — standard library only, so
// no change to this repository can alter it — and scales its own timings by
// calibRef over that time. The end-to-end times are thus host seconds at
// the reference speed: on a quiet reference host the scale is about 1.

// calibRef is the reference kernel's time on the reference host (a 2-vCPU
// Xeon, go1.24) in a quiet period, where its wall and CPU times agree.
const calibRef = 0.070

// calibrate runs the reference kernel and returns the factors that scale a
// wall time and a CPU time to the reference speed. CPU time gets its own
// factor: when neighbours deschedule this process, wall time stretches but
// CPU time does not.
func calibrate() (wallScale, cpuScale float64) {
	c0 := cpuTime()
	start := time.Now()
	for i := 0; i < 2; i++ {
		referenceKernel()
	}
	wall := time.Since(start).Seconds()
	cpu := cpuTime() - c0
	if cpu <= 0 {
		cpu = wall // rusage too coarse to see the kernel
	}
	return calibRef / wall, calibRef / cpu
}

// calibSink keeps the kernel's result live.
var calibSink int64

// referenceKernel does the kinds of work the simulator does — map inserts,
// binary-heap pushes and pops, short-lived pointer-linked allocations, a
// sort — on a fixed input.
func referenceKernel() {
	r := rand.New(rand.NewSource(1))
	type node struct {
		next *node
		v    [6]int64
	}
	m := map[int64]*node{}
	h := &int64Heap{}
	var head *node
	for i := 0; i < 40000; i++ {
		k := r.Int63n(1 << 20)
		head = &node{next: head, v: [6]int64{k}}
		m[k] = head
		heap.Push(h, k)
		if h.Len() > 2000 {
			calibSink += heap.Pop(h).(int64)
		}
		if i%4 == 0 {
			head = nil
		}
	}
	s := make([]int64, 0, len(m))
	for k, n := range m {
		s = append(s, k+n.v[0])
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	calibSink += s[0]
}

type int64Heap []int64

func (h int64Heap) Len() int           { return len(h) }
func (h int64Heap) Less(i, j int) bool { return h[i] < h[j] }
func (h int64Heap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *int64Heap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *int64Heap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
