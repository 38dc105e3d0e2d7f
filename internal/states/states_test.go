package states

import (
	"testing"
	"testing/quick"
)

func TestTaskHappyPath(t *testing.T) {
	path := []TaskState{
		TaskNew, TaskTMGRSchedule, TaskAgentStagingIn, TaskAgentSchedule,
		TaskAgentExecuting, TaskRunning, TaskAgentStagingOut, TaskDone,
	}
	for i := 0; i+1 < len(path); i++ {
		if !CanTransition(path[i], path[i+1]) {
			t.Errorf("happy path broken: %v -> %v", path[i], path[i+1])
		}
	}
}

func TestTaskShortcutRunningToDone(t *testing.T) {
	// Tasks without output staging go straight RUNNING -> DONE.
	if !CanTransition(TaskRunning, TaskDone) {
		t.Error("RUNNING -> DONE must be legal")
	}
}

func TestTaskFailureFromEveryNonFinalState(t *testing.T) {
	for s := TaskNew; s <= TaskAgentStagingOut; s++ {
		if s.Final() {
			continue
		}
		if !CanTransition(s, TaskFailed) {
			t.Errorf("%v -> FAILED must be legal", s)
		}
		if !CanTransition(s, TaskCanceled) {
			t.Errorf("%v -> CANCELED must be legal", s)
		}
	}
}

func TestNoBackwardTransitions(t *testing.T) {
	if CanTransition(TaskRunning, TaskAgentSchedule) {
		t.Error("backward transition allowed")
	}
	if CanTransition(TaskDone, TaskRunning) {
		t.Error("transition out of DONE allowed")
	}
}

func TestNoSkippingExecution(t *testing.T) {
	if CanTransition(TaskAgentSchedule, TaskDone) {
		t.Error("AGENT_SCHEDULING -> DONE skips execution")
	}
	if CanTransition(TaskAgentExecuting, TaskDone) {
		t.Error("AGENT_EXECUTING -> DONE skips RUNNING")
	}
}

func TestValidatePanicsOnIllegal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Validate should panic on illegal transition")
		}
	}()
	Validate(TaskDone, TaskRunning)
}

func TestFinalStates(t *testing.T) {
	finals := []TaskState{TaskDone, TaskFailed, TaskCanceled}
	for _, s := range finals {
		if !s.Final() {
			t.Errorf("%v should be final", s)
		}
	}
	if TaskRunning.Final() {
		t.Error("RUNNING is not final")
	}
}

// Property: final states have no outgoing edges at all.
func TestFinalStatesAreAbsorbing(t *testing.T) {
	f := func(fromRaw, toRaw uint8) bool {
		from := TaskState(fromRaw % 10)
		to := TaskState(toRaw % 10)
		if from.Final() && CanTransition(from, to) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTaskStateStrings(t *testing.T) {
	if TaskNew.String() != "NEW" || TaskRunning.String() != "RUNNING" {
		t.Error("canonical state names wrong")
	}
	if TaskState(99).String() != "TaskState(99)" {
		t.Error("unknown state formatting")
	}
}

func TestPilotLifecycle(t *testing.T) {
	if !CanTransitionPilot(PilotNew, PilotLaunching) ||
		!CanTransitionPilot(PilotLaunching, PilotActive) ||
		!CanTransitionPilot(PilotActive, PilotDone) {
		t.Error("pilot happy path broken")
	}
	if CanTransitionPilot(PilotDone, PilotActive) {
		t.Error("pilot transition out of final state")
	}
	if !CanTransitionPilot(PilotActive, PilotCanceled) {
		t.Error("active pilot must be cancelable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ValidatePilot should panic on illegal transition")
		}
	}()
	ValidatePilot(PilotDone, PilotNew)
}

func TestPilotStateStrings(t *testing.T) {
	if PilotActive.String() != "PMGR_ACTIVE" {
		t.Errorf("PilotActive = %q", PilotActive.String())
	}
	if !PilotFailed.Final() || PilotActive.Final() {
		t.Error("pilot finality wrong")
	}
}

// TestTransitionTablesExact checks every (from, to) pair, out-of-range
// states included, against the legal edges listed out one by one.
func TestTransitionTablesExact(t *testing.T) {
	abort := []TaskState{TaskFailed, TaskCanceled}
	legal := map[TaskState][]TaskState{
		TaskNew:             append([]TaskState{TaskTMGRSchedule}, abort...),
		TaskTMGRSchedule:    append([]TaskState{TaskAgentStagingIn}, abort...),
		TaskAgentStagingIn:  append([]TaskState{TaskAgentSchedule}, abort...),
		TaskAgentSchedule:   append([]TaskState{TaskAgentExecuting}, abort...),
		TaskAgentExecuting:  append([]TaskState{TaskRunning}, abort...),
		TaskRunning:         append([]TaskState{TaskAgentStagingOut, TaskDone}, abort...),
		TaskAgentStagingOut: append([]TaskState{TaskDone}, abort...),
	}
	for from := TaskState(-2); from < numTaskStates+70; from++ {
		for to := TaskState(-2); to < numTaskStates+70; to++ {
			want := false
			for _, s := range legal[from] {
				want = want || s == to
			}
			if got := CanTransition(from, to); got != want {
				t.Errorf("CanTransition(%d, %d) = %v, want %v", from, to, got, want)
			}
		}
	}
	pilotLegal := map[PilotState][]PilotState{
		PilotNew:       {PilotLaunching, PilotFailed, PilotCanceled},
		PilotLaunching: {PilotActive, PilotFailed, PilotCanceled},
		PilotActive:    {PilotDone, PilotFailed, PilotCanceled},
	}
	for from := PilotState(-2); from < numPilotStates+70; from++ {
		for to := PilotState(-2); to < numPilotStates+70; to++ {
			want := false
			for _, s := range pilotLegal[from] {
				want = want || s == to
			}
			if got := CanTransitionPilot(from, to); got != want {
				t.Errorf("CanTransitionPilot(%d, %d) = %v, want %v", from, to, got, want)
			}
		}
	}
	if TaskState(-1).String() != "TaskState(-1)" || PilotState(6).String() != "PilotState(6)" {
		t.Error("out-of-range state formatting")
	}
}
