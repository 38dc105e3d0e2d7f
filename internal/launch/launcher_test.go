package launch

import (
	"testing"

	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// stepper grants every srun step after a fixed delay and counts the
// ceiling slots held.
type stepper struct {
	eng   *sim.Engine
	delay sim.Duration
	held  int
}

func (s *stepper) StartStep(_, _ int, started func(release func())) {
	s.eng.After(s.delay, func() {
		s.held++
		started(func() { s.held-- })
	})
}

// newTestLauncher returns a launcher whose pipeline starts placed requests
// at once; boot < 0 gives it no instance process (like srun).
func newTestLauncher(eng *sim.Engine, nodes int, ctrl Stepper, boot sim.Duration, cfg Config) *Launcher {
	var l *Launcher
	cfg.Name, cfg.Engine = "x.0", eng
	cfg.Part, cfg.Ctrl = newPartition(nodes), ctrl
	cfg.Launch = func(r *Request) { l.ExecAfter(0, r) }
	if boot >= 0 {
		cfg.Bootstrap = func() sim.Duration { return boot }
	}
	l = New(cfg)
	if boot >= 0 {
		l.Boot()
	}
	return l
}

// events adapts a pair of callbacks to Events; either may be nil.
type events struct {
	start func(sim.Time)
	done  func(sim.Time, bool, string)
}

func (e events) OnStart(at sim.Time) {
	if e.start != nil {
		e.start(at)
	}
}

func (e events) OnComplete(at sim.Time, failed bool, reason string) {
	if e.done != nil {
		e.done(at, failed, reason)
	}
}

func nodeWide(dur sim.Duration, onStart func(sim.Time), onDone func(sim.Time, bool, string)) *Request {
	return &Request{
		UID:    "t",
		TD:     &spec.TaskDescription{CoresPerRank: 56, Ranks: 1, Duration: dur},
		Events: events{onStart, onDone},
	}
}

func TestLauncherWithoutInstanceProcess(t *testing.T) {
	eng := sim.NewEngine()
	l := newTestLauncher(eng, 1, nil, -1, Config{})
	ready := false
	l.Ready(func() { ready = true })
	done := false
	l.Submit(nodeWide(sim.Second, nil, func(_ sim.Time, failed bool, _ string) { done = !failed }))
	eng.Run()
	if !ready || !done {
		t.Fatalf("ready=%v done=%v: a launcher without an instance is up at once", ready, done)
	}
	if l.Crash("injected") || l.crashed || l.Restart() {
		t.Fatal("a launcher without an instance process must refuse Crash and Restart")
	}
}

func TestLauncherStaleBootIgnored(t *testing.T) {
	eng := sim.NewEngine()
	ctrl := &stepper{eng: eng, delay: 5 * sim.Second}
	l := newTestLauncher(eng, 1, ctrl, 10*sim.Second, Config{StartupTimeout: 12 * sim.Second})
	eng.RunUntil(sim.Time(2 * sim.Second)) // step not granted yet
	if !l.Crash("injected") {
		t.Fatal("crash refused")
	}
	eng.RunUntil(sim.Time(8 * sim.Second)) // the stale grant arrives meanwhile
	if ctrl.held != 0 {
		t.Fatalf("stale srun grant kept %d slots", ctrl.held)
	}
	if !l.Restart() {
		t.Fatal("restart refused")
	}
	readyAt := sim.Time(-1)
	l.Ready(func() { readyAt = eng.Now() })
	eng.Run()
	if readyAt != sim.Time(18*sim.Second) || l.BootstrapOverhead() != 10*sim.Second {
		t.Fatalf("ready at %v after a %v boot, want 18s after 10s", readyAt, l.BootstrapOverhead())
	}
	if l.failed || ctrl.held != 1 {
		t.Fatalf("failed=%v held=%d: the first attempt's timeout or grant acted on the restart", l.failed, ctrl.held)
	}
	l.Drain("test")
	if ctrl.held != 0 {
		t.Fatal("an idle drained instance kept its srun slot")
	}
}

func TestLauncherCompleteHopAfterRelease(t *testing.T) {
	eng := sim.NewEngine()
	l := newTestLauncher(eng, 1, nil, -1, Config{CompleteLatency: sim.Second})
	var end1, start2 sim.Time
	l.Submit(nodeWide(2*sim.Second, nil, func(at sim.Time, _ bool, _ string) { end1 = at }))
	l.Submit(nodeWide(2*sim.Second, func(at sim.Time) { start2 = at }, nil))
	eng.Run()
	if start2 != sim.Time(2*sim.Second) || end1 != sim.Time(3*sim.Second) {
		t.Fatalf("second start %v, first completion %v: want slots free at 2s, completion delivered at 3s", start2, end1)
	}
}

// TestBodyEndTakesEffectOnce: a body that calls end twice at once and once
// more a second later completes its request once. OnComplete fires once,
// the launcher counts one completion, and the node's slots come back once.
func TestBodyEndTakesEffectOnce(t *testing.T) {
	eng := sim.NewEngine()
	l := newTestLauncher(eng, 1, nil, -1, Config{})
	completions := 0
	l.Submit(&Request{
		UID:    "t",
		TD:     &spec.TaskDescription{CoresPerRank: 8, Ranks: 1},
		Events: events{done: func(sim.Time, bool, string) { completions++ }},
		Body: func(r *Request, end func(*Request)) {
			end(r)
			end(r)
			eng.After(sim.Second, func() { end(r) })
		},
	})
	eng.Run()
	if completions != 1 {
		t.Errorf("OnComplete fired %d times, want 1", completions)
	}
	if st := l.Stats(); st.Completed != 1 || st.Failed != 0 {
		t.Errorf("stats completed %d, failed %d, want 1 and 0", st.Completed, st.Failed)
	}
	node := l.Partition().Cluster.Node(0)
	if got, want := node.FreeCPU(), node.Spec.Slots(); got != want {
		t.Errorf("node has %d free slots after the run, want all %d back", got, want)
	}
}
