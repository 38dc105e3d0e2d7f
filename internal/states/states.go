// Package states defines the RADICAL-Pilot task and pilot state models and
// their legal transitions.
//
// RP models both pilots and tasks as state machines coordinated by an
// event-driven execution engine (paper §3). The state names follow RP's
// canonical model, collapsed to the granularity the paper's profiling
// analysis uses.
package states

import "fmt"

// TaskState is a state in the task lifecycle.
type TaskState int

// Task lifecycle, in canonical order. Tasks launched via Flux or Dragon
// traverse the same states as srun-launched ones: the paper calls this
// "consistent behaviour ... regardless of the underlying launcher".
const (
	TaskNew             TaskState = iota
	TaskTMGRSchedule              // client-side task manager accepted the task
	TaskAgentStagingIn            // agent staging input data
	TaskAgentSchedule             // waiting for / receiving a resource assignment
	TaskAgentExecuting            // handed to an executor backend (queued there)
	TaskRunning                   // backend reported the task process started
	TaskAgentStagingOut           // agent staging output data
	TaskDone
	TaskFailed
	TaskCanceled
)

// numTaskStates bounds the task state tables, which are arrays indexed by
// state: String is one index and CanTransition one bitmask test, both on
// the agent's per-transition path.
const numTaskStates = TaskCanceled + 1

var taskStateNames = [numTaskStates]string{
	TaskNew:             "NEW",
	TaskTMGRSchedule:    "TMGR_SCHEDULING",
	TaskAgentStagingIn:  "AGENT_STAGING_INPUT",
	TaskAgentSchedule:   "AGENT_SCHEDULING",
	TaskAgentExecuting:  "AGENT_EXECUTING",
	TaskRunning:         "RUNNING",
	TaskAgentStagingOut: "AGENT_STAGING_OUTPUT",
	TaskDone:            "DONE",
	TaskFailed:          "FAILED",
	TaskCanceled:        "CANCELED",
}

func (s TaskState) String() string {
	if s >= 0 && s < numTaskStates {
		return taskStateNames[s]
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Final reports whether the state is terminal.
func (s TaskState) Final() bool {
	return s == TaskDone || s == TaskFailed || s == TaskCanceled
}

// taskTransitions lists the legal forward edges of the task state machine
// as one bitmask per state: bit to is set when from → to is legal. Final
// states have no edges.
var taskTransitions = [numTaskStates]uint16{
	TaskNew:             1<<TaskTMGRSchedule | taskAbort,
	TaskTMGRSchedule:    1<<TaskAgentStagingIn | taskAbort,
	TaskAgentStagingIn:  1<<TaskAgentSchedule | taskAbort,
	TaskAgentSchedule:   1<<TaskAgentExecuting | taskAbort,
	TaskAgentExecuting:  1<<TaskRunning | taskAbort,
	TaskRunning:         1<<TaskAgentStagingOut | 1<<TaskDone | taskAbort,
	TaskAgentStagingOut: 1<<TaskDone | taskAbort,
}

// taskAbort holds the two edges every non-final task state has: to FAILED
// and to CANCELED.
const taskAbort = 1<<TaskFailed | 1<<TaskCanceled

// CanTransition reports whether from → to is a legal task transition.
func CanTransition(from, to TaskState) bool {
	// The uint conversions send negative states out of range: past the
	// table, and past the mask's width, where the shift yields 0.
	return uint(from) < uint(numTaskStates) && taskTransitions[from]&(1<<uint(to)) != 0
}

// Validate panics when from → to is illegal; components call it on every
// transition so state-machine bugs surface immediately.
func Validate(from, to TaskState) {
	if !CanTransition(from, to) {
		panic(fmt.Sprintf("states: illegal task transition %v -> %v", from, to))
	}
}

// PilotState is a state in the pilot lifecycle.
type PilotState int

// Pilot lifecycle.
const (
	PilotNew       PilotState = iota
	PilotLaunching            // waiting for the RJMS allocation
	PilotActive               // agent bootstrapped, executing tasks
	PilotDone
	PilotFailed
	PilotCanceled
)

// numPilotStates bounds the pilot state tables, arrays like the task ones.
const numPilotStates = PilotCanceled + 1

var pilotStateNames = [numPilotStates]string{
	PilotNew:       "NEW",
	PilotLaunching: "PMGR_ACTIVE_PENDING",
	PilotActive:    "PMGR_ACTIVE",
	PilotDone:      "DONE",
	PilotFailed:    "FAILED",
	PilotCanceled:  "CANCELED",
}

func (s PilotState) String() string {
	if s >= 0 && s < numPilotStates {
		return pilotStateNames[s]
	}
	return fmt.Sprintf("PilotState(%d)", int(s))
}

// Final reports whether the pilot state is terminal.
func (s PilotState) Final() bool {
	return s == PilotDone || s == PilotFailed || s == PilotCanceled
}

// pilotTransitions holds one bitmask of legal targets per pilot state.
var pilotTransitions = [numPilotStates]uint8{
	PilotNew:       1<<PilotLaunching | pilotAbort,
	PilotLaunching: 1<<PilotActive | pilotAbort,
	PilotActive:    1<<PilotDone | pilotAbort,
}

// pilotAbort holds the two edges every non-final pilot state has.
const pilotAbort = 1<<PilotFailed | 1<<PilotCanceled

// CanTransitionPilot reports whether from → to is a legal pilot transition.
func CanTransitionPilot(from, to PilotState) bool {
	return uint(from) < uint(numPilotStates) && pilotTransitions[from]&(1<<uint(to)) != 0
}

// ValidatePilot panics when from → to is illegal.
func ValidatePilot(from, to PilotState) {
	if !CanTransitionPilot(from, to) {
		panic(fmt.Sprintf("states: illegal pilot transition %v -> %v", from, to))
	}
}
