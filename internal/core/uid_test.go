package core_test

import (
	"fmt"
	"strings"
	"testing"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/profiler"
	"rpgo/internal/spec"
	"rpgo/internal/states"
	"rpgo/internal/workload"
)

// onePilot is a one-node pilot with a single Flux instance.
var onePilot = spec.PilotDescription{
	Nodes:      1,
	Partitions: []spec.PartitionConfig{{Backend: spec.BackendFlux, Instances: 1}},
}

// checkUIDIntake submits batches of zero-duration tasks with the given
// UIDs ("" for a generated one) through one task manager on onePilot, in a
// plain session or with the pilot in the second domain of a sharded one.
// It checks that every task reaches exactly one terminal state with a
// trace of its own, and that exactly the tasks whose UID the session had
// used before end FAILED, with the UID in the reason; the rest end DONE.
// A generated UID must read "task.%06d" of the task's sequence number.
func checkUIDIntake(t *testing.T, sharded bool, batches [][]string) {
	t.Helper()
	var (
		tm     *core.TaskManager
		traces func() []*profiler.TaskTrace
	)
	if sharded {
		ss := core.NewShardedSession(core.ShardedConfig{Seed: 1, Domains: 2, Shards: 1})
		p, err := ss.SubmitPilot(1, onePilot)
		if err != nil {
			t.Fatal(err)
		}
		tm, traces = ss.TaskManager(p), ss.Tasks
	} else {
		sess := core.NewSession(core.Config{Seed: 1})
		p, err := sess.SubmitPilot(onePilot)
		if err != nil {
			t.Fatal(err)
		}
		tm, traces = sess.TaskManager(p), sess.Profiler.Tasks
	}
	finals := map[*agent.Task]int{}
	tm.OnComplete = func(tk *agent.Task) { finals[tk]++ }

	// The model: every task takes the next sequence number, and a UID
	// repeats if any earlier task of the session carried it.
	used := map[string]bool{}
	var uids []string
	var repeat []bool
	var tasks []*agent.Task
	for _, batch := range batches {
		tds := make([]*spec.TaskDescription, len(batch))
		for i, uid := range batch {
			tds[i] = &spec.TaskDescription{UID: uid, Kind: spec.Executable, CoresPerRank: 1, Ranks: 1}
			if uid == "" {
				uid = fmt.Sprintf("task.%06d", len(uids))
			}
			uids = append(uids, uid)
			repeat = append(repeat, used[uid])
			used[uid] = true
		}
		tasks = append(tasks, tm.Submit(tds)...)
	}
	if err := tm.Wait(); err != nil {
		t.Fatal(err)
	}
	trs := traces()
	if len(trs) != len(tasks) {
		t.Fatalf("%d traces for %d tasks", len(trs), len(tasks))
	}
	seen := map[*profiler.TaskTrace]bool{}
	for i, tk := range tasks {
		if tk.TD.UID != uids[i] || tk.Trace.UID != uids[i] {
			t.Fatalf("task %d: UID %q, trace UID %q, want %q", i, tk.TD.UID, tk.Trace.UID, uids[i])
		}
		if tk.Trace != trs[i] || seen[tk.Trace] {
			t.Fatalf("task %d (%s) does not hold a trace of its own", i, uids[i])
		}
		seen[tk.Trace] = true
		if finals[tk] != 1 {
			t.Fatalf("task %d (%s) reached a terminal state %d times", i, uids[i], finals[tk])
		}
		want := states.TaskDone
		if repeat[i] {
			want = states.TaskFailed
		}
		if tk.State != want || tk.Trace.Failed != repeat[i] {
			t.Fatalf("task %d (%s): state %v (trace failed %v), want %v", i, uids[i], tk.State, tk.Trace.Failed, want)
		}
		if repeat[i] && !strings.Contains(tk.Reason, uids[i]) {
			t.Fatalf("task %d: reason %q does not name UID %q", i, tk.Reason, uids[i])
		}
	}
}

// uidCases are Submit scripts: batches of task UIDs, "" for a generated one.
var uidCases = [][][]string{
	// A caller UID repeated within a batch, then across batches.
	{{"a", "b", "a"}, {"b", ""}, {"a"}},
	// The caller takes task.000000 after the generator issued it, and
	// task.000005 before the generator reaches it.
	{{"", ""}, {"task.000000", "task.000005"}, {"", ""}, {"task.000005"}},
	// Sequence number 0 went to a caller's UID, so the generator never
	// issued task.000000; it did issue task.000001.
	{{"c", ""}, {"task.000000", "task.000001"}},
}

func TestSubmitRejectsDuplicateUID(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		for i, c := range uidCases {
			t.Run(fmt.Sprintf("sharded=%v/case%d", sharded, i), func(t *testing.T) {
				checkUIDIntake(t, sharded, c)
			})
		}
	}
	t.Run("resubmitted description", func(t *testing.T) {
		sess := core.NewSession(core.Config{Seed: 1})
		p, err := sess.SubmitPilot(onePilot)
		if err != nil {
			t.Fatal(err)
		}
		tm := sess.TaskManager(p)
		tds := workload.Null(1)
		first := tm.Submit(tds)[0]
		again := tm.Submit(tds)[0]
		if err := tm.Wait(); err != nil {
			t.Fatal(err)
		}
		if first.State != states.TaskDone || again.State != states.TaskFailed || first.Trace == again.Trace {
			t.Fatalf("first %v, resubmission %v, shared trace %v: the resubmission repeats the filled-in UID",
				first.State, again.State, first.Trace == again.Trace)
		}
	})
}

// scriptShapes are task.-prefixed UIDs the generator never issues, or
// issues only at a sequence number no script reaches.
var scriptShapes = [...]string{
	"task.", "task.00000", "task.0000000", "task.1000000",
	"task.-00001", "task.00000a", "task.000001 ", "TASK.000001",
}

// scriptUID maps one script byte to a task UID: 0 is a generated UID,
// 1–119 the generator's own "task.%06d" of 0–118, 120–127 the
// scriptShapes, and 128–255 one of 16 caller names, "a" to "p".
func scriptUID(c byte) string {
	switch {
	case c == 0:
		return ""
	case c < 120:
		return fmt.Sprintf("task.%06d", c-1)
	case c < 128:
		return scriptShapes[c-120]
	default:
		return string(rune('a' + (c-128)%16))
	}
}

// maxScriptTasks bounds the tasks one script submits.
const maxScriptTasks = 64

// decodeUIDScript reads a script as Submit batches: a header byte h opens
// a batch of 1 + h%8 tasks, and each of the bytes after it gives one
// task's UID (scriptUID). A short last batch takes the bytes left.
func decodeUIDScript(script []byte) [][]string {
	var batches [][]string
	total := 0
	for len(script) > 1 && total < maxScriptTasks {
		n := min(1+int(script[0])%8, len(script)-1)
		batch := make([]string, n)
		for i := range batch {
			batch[i] = scriptUID(script[1+i])
		}
		batches = append(batches, batch)
		script = script[1+n:]
		total += n
	}
	return batches
}

// encodeUIDScript is decodeUIDScript's inverse for batches of at most 8
// UIDs that scriptUID can produce.
func encodeUIDScript(batches [][]string) []byte {
	var out []byte
	for _, batch := range batches {
		out = append(out, byte(len(batch)-1))
		for _, uid := range batch {
			c := 0
			for c < 256 && scriptUID(byte(c)) != uid {
				c++
			}
			if c == 256 {
				panic("no script byte encodes UID " + uid)
			}
			out = append(out, byte(c))
		}
	}
	return out
}

func FuzzSubmitUIDs(f *testing.F) {
	for _, c := range uidCases {
		f.Add(encodeUIDScript(c))
	}
	f.Add([]byte{7, 0, 1, 2, 3, 120, 121, 122, 123, 7, 124, 125, 126, 127, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		checkUIDIntake(t, false, decodeUIDScript(script))
	})
}

// TestSubmitCarvesGeneratedUIDs checks the UIDs Submit carves from one
// string per batch against fmt, across the six-digit boundary and around
// a caller's UID, which takes a sequence number too.
func TestSubmitCarvesGeneratedUIDs(t *testing.T) {
	cases := []struct {
		from int
		uids []string
	}{
		{0, []string{"", "", ""}},
		{999_999, []string{"", "", ""}},
		{12_345_678, []string{"", "x", ""}},
	}
	for _, c := range cases {
		sess := core.NewSession(core.Config{Seed: 1})
		p, err := sess.SubmitPilot(onePilot)
		if err != nil {
			t.Fatal(err)
		}
		sess.SetTaskSeq(c.from)
		tds := make([]*spec.TaskDescription, len(c.uids))
		for i, uid := range c.uids {
			tds[i] = &spec.TaskDescription{UID: uid, CoresPerRank: 1, Ranks: 1}
		}
		sess.TaskManager(p).Submit(tds)
		for i, td := range tds {
			want := c.uids[i]
			if want == "" {
				want = fmt.Sprintf("task.%06d", c.from+i)
			}
			if td.UID != want {
				t.Errorf("sequence %d: UID %q, want %q", c.from+i, td.UID, want)
			}
		}
	}
}
