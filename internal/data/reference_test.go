package data

import (
	"fmt"
	"math"

	"rpgo/internal/model"
	"rpgo/internal/platform"
	"rpgo/internal/profiler"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// refSystem is the per-flow fair-share model the route model replaced,
// kept as the reference it must match bit for bit. Every change recounts
// each channel's flows, gives every flow its own rate and takes the next
// completion as the minimum over all flows. It carries the transfer API's
// channel choice, setup latency and naming, but not the registry,
// coalescing or telemetry, which do not feed the flow engine.
type refSystem struct {
	eng    *sim.Engine
	prof   *profiler.Profiler
	params model.DataParams

	shared   *Channel
	burst    *Channel
	nvme     map[int]*Channel
	channels []*Channel

	flows  []*refFlow
	seq    uint64
	uidSeq uint64
	lastT  sim.Time
	timer  sim.Timer
}

type refFlow struct {
	seq       uint64
	remaining float64
	rate      float64
	chans     []*Channel
	tt        transferInfo
	fn        func(any)
	arg       any
}

func newRefSystem(eng *sim.Engine, alloc *platform.Allocation, p model.DataParams, prof *profiler.Profiler) *refSystem {
	def := model.Default().Data
	if p.NVMeBandwidth <= 0 {
		p.NVMeBandwidth = def.NVMeBandwidth
	}
	if p.SharedFSBase <= 0 && p.SharedFSPerNode <= 0 {
		p.SharedFSBase, p.SharedFSPerNode = def.SharedFSBase, def.SharedFSPerNode
	}
	n := alloc.Size()
	s := &refSystem{eng: eng, prof: prof, params: p, nvme: make(map[int]*Channel, n)}
	s.shared = &Channel{name: "sharedfs", capacity: p.SharedFSBandwidth(n)}
	s.channels = append(s.channels, s.shared)
	if bb := p.BurstBufferBandwidth(n); bb > 0 {
		s.burst = &Channel{name: "burstbuffer", capacity: bb}
		s.channels = append(s.channels, s.burst)
	}
	for _, node := range alloc.Nodes {
		ch := &Channel{name: fmt.Sprintf("nvme:%d", node.ID), capacity: p.NVMeBandwidth}
		s.nvme[node.ID] = ch
		s.channels = append(s.channels, ch)
	}
	return s
}

func (s *refSystem) tierChannel(t spec.StageTier) *Channel {
	if t == spec.TierBurstBuffer && s.burst != nil {
		return s.burst
	}
	return s.shared
}

func (s *refSystem) tierLatency(t spec.StageTier) float64 {
	switch t {
	case spec.TierNodeLocal:
		return s.params.NVMeLatency
	case spec.TierBurstBuffer:
		if s.burst != nil {
			return s.params.BurstBufferLatency
		}
		return s.params.SharedFSLatency
	default:
		return s.params.SharedFSLatency
	}
}

func (s *refSystem) nextUID() string {
	uid := fmt.Sprintf("xfer.%06d", s.uidSeq)
	s.uidSeq++
	return uid
}

func (s *refSystem) StageToNode(task, dataset string, bytes int64, src spec.StageTier, node int, fn func(any), arg any) string {
	srcCh := s.tierChannel(src)
	chans := []*Channel{srcCh}
	if ch := s.nvme[node]; ch != nil {
		chans = append(chans, ch)
	}
	uid := s.nextUID()
	s.startTransfer(chans, s.tierLatency(src)+s.params.NVMeLatency, transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: fmt.Sprintf("nvme:%d", node), node: node,
	}, fn, arg)
	return uid
}

func (s *refSystem) WriteFromNode(task, dataset string, bytes int64, node int, dest spec.StageTier, fn func(any), arg any) string {
	var chans []*Channel
	dstName := fmt.Sprintf("nvme:%d", node)
	if ch := s.nvme[node]; ch != nil {
		chans = append(chans, ch)
	}
	lat := s.params.NVMeLatency
	if dest != spec.TierNodeLocal {
		dch := s.tierChannel(dest)
		chans = append(chans, dch)
		dstName = dch.name
		lat += s.tierLatency(dest)
	}
	uid := s.nextUID()
	s.startTransfer(chans, lat, transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: fmt.Sprintf("nvme:%d", node), dst: dstName, node: node,
	}, fn, arg)
	return uid
}

func (s *refSystem) TierTransfer(task, dataset string, bytes int64, src, dest spec.StageTier, fn func(any), arg any) string {
	srcCh, dstCh := s.tierChannel(src), s.tierChannel(dest)
	chans := []*Channel{srcCh}
	if dstCh != srcCh {
		chans = append(chans, dstCh)
	}
	uid := s.nextUID()
	s.startTransfer(chans, s.tierLatency(src)+s.tierLatency(dest), transferInfo{
		uid: uid, dataset: dataset, task: task, bytes: bytes,
		src: srcCh.name, dst: dstCh.name, node: -1,
	}, fn, arg)
	return uid
}

func (s *refSystem) startTransfer(chans []*Channel, latency float64, tt transferInfo, fn func(any), arg any) {
	s.eng.After(sim.Seconds(latency), func() {
		now := s.eng.Now()
		tt.start = now
		f := &refFlow{seq: s.seq, remaining: float64(tt.bytes), chans: chans, tt: tt, fn: fn, arg: arg}
		s.seq++
		if tt.bytes <= 0 {
			s.finishTransfer(f, now)
			return
		}
		s.advance()
		for _, ch := range chans {
			if ch.nActive > 0 {
				f.tt.contended = ch.name
				break
			}
		}
		s.flows = append(s.flows, f)
		s.recompute()
	})
}

func (s *refSystem) finishTransfer(f *refFlow, at sim.Time) {
	tt := profiler.TransferTrace{
		UID: f.tt.uid, Dataset: f.tt.dataset, Task: f.tt.task, Bytes: f.tt.bytes,
		Src: f.tt.src, Dst: f.tt.dst, Node: f.tt.node, Start: f.tt.start, End: at,
	}
	var wait *profiler.CausalEdge
	if f.tt.contended != "" && at > f.tt.start {
		wait = &profiler.CausalEdge{Kind: profiler.EdgeContention, From: f.tt.start, To: at, Ref: f.tt.contended}
	}
	s.prof.Transfer(tt, wait)
	if f.fn != nil {
		f.fn(f.arg)
	}
}

func (s *refSystem) advance() {
	now := s.eng.Now()
	dt := now.Sub(s.lastT).Seconds()
	if dt > 0 {
		for _, f := range s.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	s.lastT = now
}

func (s *refSystem) recompute() {
	for _, ch := range s.channels {
		ch.nActive = 0
		ch.sumRate = 0
	}
	for _, f := range s.flows {
		for _, ch := range f.chans {
			ch.nActive++
		}
	}
	for _, f := range s.flows {
		r := math.Inf(1)
		for _, ch := range f.chans {
			if share := ch.capacity / float64(ch.nActive); share < r {
				r = share
			}
		}
		f.rate = r
		for _, ch := range f.chans {
			ch.sumRate += r
		}
	}
	now := s.eng.Now()
	for _, ch := range s.channels {
		ch.note(now, ch.sumRate/ch.capacity)
	}
	s.timer.Stop()
	if len(s.flows) == 0 {
		return
	}
	next := sim.Duration(-1)
	for _, f := range s.flows {
		d := flowETA(f.remaining, f.rate)
		if next < 0 || d < next {
			next = d
		}
	}
	s.timer = s.eng.After(next, s.tick)
}

func (s *refSystem) tick() {
	s.advance()
	kept := s.flows[:0]
	var finished []*refFlow
	for _, f := range s.flows {
		if f.remaining <= f.rate*1e-6 {
			finished = append(finished, f)
		} else {
			kept = append(kept, f)
		}
	}
	s.flows = kept
	now := s.eng.Now()
	for _, f := range finished {
		s.finishTransfer(f, now)
	}
	s.recompute()
}
