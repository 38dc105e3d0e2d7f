package main

import (
	"container/heap"
	"strconv"
	"time"
)

// refCalNs is calibrate's p10 on the reference host (the 2-core VM the
// README's figures come from). Host times are reported at that speed.
const refCalNs = 3.0e6

// calibrate times a fixed workload built from the standard library alone,
// shaped like the simulator's inner loop: a binary heap of timestamped
// events, a string-keyed index, and small allocations. On a shared host,
// speed drifts by tens of percent over minutes, and this loop drifts with
// the simulator. None of rpgo's code runs in it, so no change to rpgo can
// move it. The harness runs it before every timed rep.
func calibrate() int64 {
	t := time.Now()
	const n, live = 10000, 3000
	var h calHeap
	index := make(map[string]*calEvent)
	keys := make([]string, 0, n)
	at := uint64(1)
	for i := 0; i < n; i++ {
		at = at*6364136223846793005 + 1442695040888963407
		e := &calEvent{at: at >> 34, id: i, payload: make([]byte, 48)}
		heap.Push(&h, e)
		k := "task." + strconv.Itoa(i)
		index[k] = e
		keys = append(keys, k)
		if len(h) > live {
			delete(index, keys[heap.Pop(&h).(*calEvent).id])
		}
	}
	return time.Since(t).Nanoseconds()
}

type calEvent struct {
	at      uint64
	id      int
	payload []byte
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}
