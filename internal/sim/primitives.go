package sim

// This file provides sim-aware synchronization and queueing primitives used
// by the runtime models: a counted FIFO semaphore (the srun concurrency
// ceiling) and a queueing server with a pluggable service-time function
// (the agent scheduler and executor submitters, the Slurm step registrar,
// the PRRTE prun, the Dragon dispatcher).

// Semaphore is a counted semaphore with FIFO waiters in virtual time.
// The zero value is unusable; use NewSemaphore.
//
// Like Server, it is allocation-lean: waiters queue by value in a fifo,
// and a grant runs its continuation through the engine's arg-carrying
// ImmediatelyCall, so a caller that binds fn once pays no per-acquisition
// closure.
type Semaphore struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  fifo[semWaiter]
	// HighWater tracks the maximum number of simultaneously held units,
	// useful for asserting concurrency ceilings in tests.
	HighWater int
}

type semWaiter struct {
	n   int
	fn  func(any)
	arg any
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(eng *Engine, capacity int) *Semaphore {
	if capacity < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: eng, capacity: capacity}
}

// Capacity returns the total number of units.
func (s *Semaphore) Capacity() int { return s.capacity }

// InUse returns the number of currently held units.
func (s *Semaphore) InUse() int { return s.inUse }

// Acquire requests n units and invokes fn(arg) (asynchronously, via the
// engine) once they are granted. Grants are strictly FIFO: a large request
// at the head of the queue blocks later small ones, matching how Slurm
// serializes step creation.
func (s *Semaphore) Acquire(n int, fn func(any), arg any) {
	if n <= 0 {
		panic("sim: Acquire of non-positive units")
	}
	if n > s.capacity {
		panic("sim: Acquire exceeds semaphore capacity")
	}
	s.waiters.push(semWaiter{n: n, fn: fn, arg: arg})
	s.dispatch()
}

// Release returns n units and wakes eligible waiters.
func (s *Semaphore) Release(n int) {
	if n <= 0 {
		panic("sim: Release of non-positive units")
	}
	if n > s.inUse {
		panic("sim: Release of units never acquired")
	}
	s.inUse -= n
	s.dispatch()
}

func (s *Semaphore) dispatch() {
	for s.waiters.len() > 0 {
		if s.inUse+s.waiters.front().n > s.capacity {
			return
		}
		w := s.waiters.pop()
		s.inUse += w.n
		if s.inUse > s.HighWater {
			s.HighWater = s.inUse
		}
		// Run the continuation through the engine so grant ordering is
		// part of the deterministic event sequence.
		s.eng.ImmediatelyCall(w.fn, w.arg)
	}
}

// Server models a queueing station with a fixed number of parallel servers
// and a per-item service-time function. It is the building block for the
// Slurm step registrar (1 server, rate degrading with allocation size) and
// the Dragon dispatcher (1 server, constant rate).
//
// The station is allocation-lean: waiting items live by value in a fifo,
// in-service items by value in a per-server slot array, and service
// completion is scheduled through AfterCall with the slot index as the
// argument — small ints box for free, so a pass through the station costs
// no per-item heap allocation.
type Server[T any] struct {
	eng      *Engine
	servers  int
	busy     int
	queue    fifo[T]
	service  func(T) Duration
	complete func(T)
	// inService holds the item each busy server slot is working on;
	// slotBusy marks occupancy. finishFn is the prebound completion.
	inService []T
	slotBusy  []bool
	finishFn  func(any)
}

// NewServer returns a station with n parallel servers. service returns the
// virtual service duration per item; complete is invoked when an item
// finishes service.
func NewServer[T any](eng *Engine, n int, service func(T) Duration, complete func(T)) *Server[T] {
	if n <= 0 {
		panic("sim: Server needs at least one server")
	}
	if service == nil {
		panic("sim: Server needs a service function")
	}
	s := &Server[T]{
		eng: eng, servers: n, service: service, complete: complete,
		inService: make([]T, n),
		slotBusy:  make([]bool, n),
	}
	s.finishFn = s.finish
	return s
}

// Submit enqueues an item for service; the server's completion callback
// receives it when its service ends.
func (s *Server[T]) Submit(item T) {
	s.queue.push(item)
	s.pump()
}

func (s *Server[T]) pump() {
	for s.busy < s.servers && s.queue.len() > 0 {
		it := s.queue.pop()
		slot := s.takeSlot()
		s.busy++
		s.inService[slot] = it
		s.eng.AfterCall(max(s.service(it), 0), s.finishFn, slot)
	}
}

func (s *Server[T]) takeSlot() int {
	for i, b := range s.slotBusy {
		if !b {
			s.slotBusy[i] = true
			return i
		}
	}
	panic("sim: Server has busy count below capacity but no free slot")
}

func (s *Server[T]) finish(arg any) {
	slot := arg.(int)
	it := s.inService[slot]
	var zero T
	s.inService[slot] = zero
	s.slotBusy[slot] = false
	s.busy--
	if s.complete != nil {
		s.complete(it)
	}
	s.pump()
}

// fifo is a head-indexed FIFO of values: the waiting line of Semaphore and
// Server, and the engine's immediate lane. pop clears the slot it vacates
// and compacts the drained prefix, so memory tracks the live backlog, not
// the cumulative push count: the slice resets when empty and shifts down
// when the dead prefix passes half of it.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

// front returns the head value; the queue must not be empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// pop removes and returns the head value; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}
