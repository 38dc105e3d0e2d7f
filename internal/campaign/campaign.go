// Package campaign implements the IMPECCABLE.v2 drug-discovery campaign —
// a workflow of workflows (paper §2) — and the adaptive execution engine
// that drives it through RADICAL-Pilot.
//
// Structure: the six sub-workflows (docking, SST training, SST inference,
// physics scoring, ESMACS ensembles, REINVENT generation) run as
// *concurrent, asynchronous pipelines*, exactly as §2 describes
// ("IMPECCABLE requires the concurrent, asynchronous execution of multiple
// heterogeneous workflows"). Each pipeline iterates: submit one batch of
// tasks, wait for the batch barrier, submit the next. Feedback coupling
// between pipelines (REINVENT → docking → training → inference) is
// represented by the shared iteration cadence rather than explicit data
// edges — the paper's own evaluation replaces all task bodies with
// sleep-180 dummies, so only launch/coordination behaviour matters.
//
// Adaptive scheduling (paper §4.2): batch sizes scale with the allocation
// (larger pilots run larger batches) and iteration counts shrink
// correspondingly (larger batches converge the loop in fewer iterations).
// A lower bound of 102 tasks per 128 nodes is enforced on the campaign
// total, as in the paper.
package campaign

import (
	"fmt"
	"math"
	"strconv"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/rng"
	"rpgo/internal/sim"
	"rpgo/internal/workload"
)

// Config parameterizes a campaign run.
type Config struct {
	// Nodes is the pilot allocation size the campaign adapts to.
	Nodes int
	// MaxIters caps every pipeline's iteration count (fast tests);
	// zero means no cap.
	MaxIters int
	// MaxRetries is applied to every campaign task (basic fault
	// tolerance via retries, §4.2).
	MaxRetries int
	// Pipelines overrides the workflow pipelines; nil uses
	// workload.ImpeccablePipelines.
	Pipelines []workload.Pipeline
	// SizingStream names the RNG stream driving adaptive batch jitter;
	// empty means "campaign.adaptive". Sharded runs give each per-pilot
	// campaign its own stream so sizing decisions stay decorrelated.
	SizingStream string
}

// minTasksPer128Nodes is the paper's consistency lower bound on the
// campaign total.
const minTasksPer128Nodes = 102

// IterationRecord captures one pipeline iteration for analysis.
type IterationRecord struct {
	Workflow  string
	Iteration int
	Tasks     int
	Submitted sim.Time
	Completed sim.Time
}

// pipelineState tracks one running workflow pipeline.
type pipelineState struct {
	spec    workload.Pipeline
	batch   int
	iters   int
	curIter int
	pending int
	record  *IterationRecord
	done    bool
}

// Campaign drives the workflow-of-workflows on one task manager.
type Campaign struct {
	cfg  Config
	tm   *core.TaskManager
	sess *core.Session

	pipes      []*pipelineState
	byWorkflow map[string]*pipelineState
	records    []*IterationRecord
	// sizing drives the adaptive batch-size jitter (§4.2: "the number
	// of tasks instantiated by some workflows is adjusted dynamically at
	// runtime based on available system resources").
	sizing *rng.Stream

	totalSubmitted int
	totalFailed    int
	remaining      int

	done    bool
	started bool
}

// New builds a campaign bound to the session and task manager. The task
// manager's OnComplete hook is taken over by the campaign.
func New(cfg Config, sess *core.Session, tm *core.TaskManager) *Campaign {
	if cfg.Nodes <= 0 {
		panic("campaign: Nodes must be positive")
	}
	c := &Campaign{cfg: cfg, sess: sess, tm: tm, byWorkflow: make(map[string]*pipelineState)}
	stream := cfg.SizingStream
	if stream == "" {
		stream = "campaign.adaptive"
	}
	c.sizing = sess.Rand(stream)
	specs := cfg.Pipelines
	if specs == nil {
		specs = workload.ImpeccablePipelines()
	}
	for _, ps := range specs {
		st := &pipelineState{
			spec:  ps,
			batch: BatchSize(ps, cfg.Nodes),
			iters: Iterations(ps, cfg.Nodes),
		}
		if cfg.MaxIters > 0 && st.iters > cfg.MaxIters {
			st.iters = cfg.MaxIters
		}
		c.pipes = append(c.pipes, st)
		if _, dup := c.byWorkflow[ps.Template.Workflow]; dup {
			panic("campaign: duplicate workflow " + ps.Template.Workflow)
		}
		c.byWorkflow[ps.Template.Workflow] = st
	}
	c.remaining = len(c.pipes)
	tm.OnComplete = c.taskCompleted
	return c
}

// AdaptiveGenerations returns the convergence iteration scale for an
// allocation size: larger allocations run larger per-iteration batches
// (adaptive sizing) and converge the active-learning loop in fewer
// iterations. The value is a scale factor anchor: 20 at 256 nodes, 16 at
// 1024, matching the task totals and makespans of §4.2.
func AdaptiveGenerations(nodes int) int {
	g := 24 - int(math.Round(2*math.Log2(float64(nodes)/64)))
	if g < 4 {
		g = 4
	}
	return g
}

// BatchSize returns the adaptive per-iteration task count of a pipeline at
// the given allocation size (reference scale 256 nodes).
func BatchSize(p workload.Pipeline, nodes int) int {
	n := int(math.Round(p.BatchBase * float64(nodes) / 256))
	if n < 1 {
		n = 1
	}
	return n
}

// Iterations returns the adaptive iteration count of a pipeline: the base
// count at 256 nodes, scaled by the convergence factor.
func Iterations(p workload.Pipeline, nodes int) int {
	scale := float64(AdaptiveGenerations(nodes)) / float64(AdaptiveGenerations(256))
	n := int(math.Round(float64(p.ItersBase) * scale))
	if n < 1 {
		n = 1
	}
	return n
}

// PlannedTotal returns the total number of tasks the campaign will submit.
func (c *Campaign) PlannedTotal() int {
	total := 0
	for _, st := range c.pipes {
		total += st.batch * st.iters
	}
	return total
}

// Records returns the per-iteration execution records so far.
func (c *Campaign) Records() []*IterationRecord { return c.records }

// NumPipelines returns the number of concurrent workflow pipelines.
func (c *Campaign) NumPipelines() int { return len(c.pipes) }

// TotalSubmitted returns the number of tasks submitted so far.
func (c *Campaign) TotalSubmitted() int { return c.totalSubmitted }

// TotalFailed returns the number of tasks that ended FAILED.
func (c *Campaign) TotalFailed() int { return c.totalFailed }

// Done reports whether every pipeline has finished.
func (c *Campaign) Done() bool { return c.done }

// Start launches every pipeline concurrently; drive the session afterwards
// (tm.Wait or sess.Run).
func (c *Campaign) Start() error {
	if c.started {
		return fmt.Errorf("campaign: already started")
	}
	c.started = true
	min := minTasksPer128Nodes * c.cfg.Nodes / 128
	if c.cfg.MaxIters == 0 {
		if total := c.PlannedTotal(); total < min {
			return fmt.Errorf("campaign: planned total %d below lower bound %d (102 per 128 nodes)", total, min)
		}
	}
	for _, st := range c.pipes {
		c.submitIteration(st)
	}
	return nil
}

// submitIteration instantiates the pipeline's next batch. Scalable
// (loosely coupled) pipelines resize each batch adaptively around the
// base, opportunistically exploiting idle resources — this produces the
// concurrency bursts visible in the paper's Fig 8.
func (c *Campaign) submitIteration(st *pipelineState) {
	tmpl := &st.spec.Template
	n := st.batch
	if st.spec.Adaptive {
		n = int(math.Round(float64(n) * c.sizing.LogNormal(1, 0.45)))
		if n < 1 {
			n = 1
		}
		if n > 4*st.batch {
			n = 4 * st.batch
		}
	}
	// Every task of the batch is one copy of the same description: the
	// template with the iteration's tags, its multi-node footprint clamped
	// to the allocation (small test pilots) and its ranks shrunk in
	// proportion.
	td := tmpl.TD
	if td.Nodes > c.cfg.Nodes {
		shrink := float64(c.cfg.Nodes) / float64(td.Nodes)
		td.Nodes = c.cfg.Nodes
		td.Ranks = int(math.Max(1, math.Floor(float64(td.Ranks)*shrink)))
	}
	td.MaxRetries = c.cfg.MaxRetries
	td.Workflow = tmpl.Workflow
	td.Stage = stageLabel(st.curIter, tmpl.Stage)
	tds := workload.Copies(td, n)
	st.pending = n
	c.totalSubmitted += n
	rec := &IterationRecord{
		Workflow:  tmpl.Workflow,
		Iteration: st.curIter,
		Tasks:     n,
		Submitted: c.sess.Engine.Now(),
	}
	c.records = append(c.records, rec)
	st.record = rec
	c.tm.Submit(tds)
}

// stageLabel names an iteration's stage, "i" + the iteration zero-padded
// to three digits + "." + stage: the bytes fmt's "i%03d.%s" gives for
// iter ≥ 0, without its per-call cost.
func stageLabel(iter int, stage string) string {
	pad := ""
	switch {
	case iter < 10:
		pad = "00"
	case iter < 100:
		pad = "0"
	}
	return "i" + pad + strconv.Itoa(iter) + "." + stage
}

// taskCompleted is the TaskManager's OnComplete hook; completions are
// routed to their pipeline by workflow tag.
func (c *Campaign) taskCompleted(t *agent.Task) {
	st, ok := c.byWorkflow[t.TD.Workflow]
	if !ok || st.done {
		return
	}
	if t.Trace.Failed {
		c.totalFailed++
	}
	st.pending--
	if st.pending > 0 {
		return
	}
	// Iteration barrier reached for this pipeline.
	st.record.Completed = c.sess.Engine.Now()
	st.curIter++
	if st.curIter >= st.iters {
		st.done = true
		c.remaining--
		c.done = c.remaining == 0
		return
	}
	c.submitIteration(st)
}
