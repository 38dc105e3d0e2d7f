package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSemaphoreGrantsFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 2)
	var order []int
	for i := 0; i < 5; i++ {
		s.Acquire(1, func(arg any) { order = append(order, arg.(int)) }, i)
	}
	e.Run()
	if len(order) != 2 {
		t.Fatalf("granted %d, want 2 (capacity)", len(order))
	}
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("grants not FIFO: %v", order)
	}
	s.Release(1)
	e.Run()
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("after release: %v", order)
	}
}

func TestSemaphoreLargeRequestBlocksLater(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 4)
	var got []string
	grant := func(arg any) { got = append(got, arg.(string)) }
	s.Acquire(3, grant, "big1")
	s.Acquire(3, grant, "big2") // must wait
	s.Acquire(1, grant, "small")
	e.Run()
	// FIFO: big2 at the head blocks small even though small would fit.
	if len(got) != 1 || got[0] != "big1" {
		t.Fatalf("got %v, want [big1] only", got)
	}
	s.Release(3)
	e.Run()
	if len(got) != 3 || got[1] != "big2" || got[2] != "small" {
		t.Fatalf("after release got %v", got)
	}
}

func TestSemaphoreHighWater(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 10)
	s.Acquire(4, func(any) {}, nil)
	s.Acquire(5, func(any) {}, nil)
	e.Run()
	if s.HighWater != 9 {
		t.Fatalf("high water = %d, want 9", s.HighWater)
	}
	s.Release(9)
	if s.HighWater != 9 {
		t.Fatalf("high water should persist, got %d", s.HighWater)
	}
}

func TestSemaphoreMisuse(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(e, 1)
	assertPanics(t, "release without acquire", func() { s.Release(1) })
	assertPanics(t, "acquire zero", func() { s.Acquire(0, func(any) {}, nil) })
	assertPanics(t, "acquire beyond capacity", func() { s.Acquire(2, func(any) {}, nil) })
}

// TestSemaphoreNeverExceedsCapacity drives a random acquire/release program
// and checks the invariant the srun ceiling depends on.
func TestSemaphoreNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw)%16 + 1
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		s := NewSemaphore(e, capacity)
		ok := true
		held := 0
		for i := 0; i < 200; i++ {
			n := r.Intn(capacity) + 1
			e.After(Duration(r.Intn(1000))*Millisecond, func() {
				s.Acquire(n, func(any) {
					if s.InUse() > capacity {
						ok = false
					}
					held += n
					e.After(Duration(r.Intn(500))*Millisecond, func() {
						held -= n
						s.Release(n)
					})
				}, nil)
			})
		}
		e.MaxSteps = 100000
		e.Run()
		return ok && s.InUse() == 0 && s.HighWater <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestServerParallelism(t *testing.T) {
	e := NewEngine()
	var done []Time
	srv := NewServer(e, 2, func(int) Duration { return Second }, func(int) {
		done = append(done, e.Now())
	})
	for i := 0; i < 4; i++ {
		srv.Submit(i)
	}
	if srv.busy != 2 || srv.queue.len() != 2 {
		t.Fatalf("busy=%d queue=%d, want 2/2", srv.busy, srv.queue.len())
	}
	e.Run()
	// Two servers, 1 s service: completions at 1 s and 2 s.
	if done[0] != Time(Second) || done[1] != Time(Second) ||
		done[2] != Time(2*Second) || done[3] != Time(2*Second) {
		t.Fatalf("completion times: %v", done)
	}
}

func TestServerRateApproximation(t *testing.T) {
	// A single server with 10 ms service must process ~100 items/s.
	e := NewEngine()
	n := 0
	srv := NewServer(e, 1, func(int) Duration { return 10 * Millisecond }, func(int) { n++ })
	for i := 0; i < 1000; i++ {
		srv.Submit(i)
	}
	e.RunUntil(Time(5 * Second))
	if n != 500 {
		t.Fatalf("processed %d items in 5s at 100/s, want 500", n)
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestFifoKeepsOrderAcrossCompaction interleaves pushes and pops so the
// drained prefix is reset and shifted down, and checks FIFO order and that
// the buffer tracks the live backlog rather than the total pushed.
func TestFifoKeepsOrderAcrossCompaction(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 2+round%3; i++ {
			if q.len() == 0 {
				break
			}
			if *q.front() != want {
				t.Fatalf("front = %d, want %d", *q.front(), want)
			}
			if got := q.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
		if len(q.buf) > 2*q.len()+3 {
			t.Fatalf("round %d: buffer holds %d for a backlog of %d", round, len(q.buf), q.len())
		}
	}
	if q.len() != next-want {
		t.Fatalf("len = %d, want %d", q.len(), next-want)
	}
}
