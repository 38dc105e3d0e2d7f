// Package workflow provides a task-graph (DAG) execution layer on top of
// the RADICAL-Pilot task manager — the "workflow manager" position of the
// paper's Fig 1, comparable to RADICAL-AsyncFlow.
//
// A Graph holds named nodes; each node carries a batch of task
// descriptions and a dependency list. The engine submits a node once all
// of its dependencies completed, so independent branches execute
// concurrently through whatever backends the pilot provides. Campaign-style
// chains, fan-out/fan-in trees, and diamond dependencies all express
// naturally.
package workflow

import (
	"fmt"

	"rpgo/internal/agent"
	"rpgo/internal/core"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// Node is one unit of the graph: a batch of tasks released together.
type Node struct {
	Name string
	// Tasks is the batch submitted when the node fires.
	Tasks []*spec.TaskDescription
	// After lists node names that must complete first.
	After []string

	// Submitted/Completed are filled by the run (virtual time).
	Submitted sim.Time
	Completed sim.Time
	// Failed counts FAILED tasks of the batch.
	Failed int

	pending   int
	remaining int // unmet dependencies
	state     nodeState
	children  []*Node
}

type nodeState int

const (
	nodeWaiting nodeState = iota
	nodeRunning
	nodeDone
)

// Graph is a set of nodes with dependencies.
type Graph struct {
	nodes map[string]*Node
	order []*Node
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{nodes: make(map[string]*Node)}
}

// Add inserts a node. Dependencies may be added before their targets exist;
// Validate catches dangling names.
func (g *Graph) Add(n *Node) error {
	if n.Name == "" {
		return fmt.Errorf("workflow: node needs a name")
	}
	if _, dup := g.nodes[n.Name]; dup {
		return fmt.Errorf("workflow: duplicate node %q", n.Name)
	}
	if len(n.Tasks) == 0 {
		return fmt.Errorf("workflow: node %q has no tasks", n.Name)
	}
	g.nodes[n.Name] = n
	g.order = append(g.order, n)
	return nil
}

// Nodes returns nodes in insertion order.
func (g *Graph) Nodes() []*Node { return g.order }

// Validate checks that all dependencies exist and the graph is acyclic.
func (g *Graph) Validate() error {
	for _, n := range g.order {
		for _, dep := range n.After {
			if _, ok := g.nodes[dep]; !ok {
				return fmt.Errorf("workflow: node %q depends on unknown node %q", n.Name, dep)
			}
			if dep == n.Name {
				return fmt.Errorf("workflow: node %q depends on itself", n.Name)
			}
		}
	}
	// Kahn's algorithm detects cycles.
	indeg := make(map[string]int, len(g.nodes))
	for _, n := range g.order {
		indeg[n.Name] = len(n.After)
	}
	adj := make(map[string][]string)
	for _, n := range g.order {
		for _, dep := range n.After {
			adj[dep] = append(adj[dep], n.Name)
		}
	}
	var queue []string
	for name, d := range indeg {
		if d == 0 {
			queue = append(queue, name)
		}
	}
	seen := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seen++
		for _, next := range adj[cur] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if seen != len(g.nodes) {
		return fmt.Errorf("workflow: dependency cycle detected")
	}
	return nil
}

// Run drives the graph through the task manager. It wires itself into
// tm.OnComplete; Start submits the root nodes, and the caller then drives
// the session (tm.Wait or sess.Run).
type Run struct {
	graph *Graph
	sess  *core.Session
	tm    *core.TaskManager

	byUID     map[string]*Node
	remaining int
	started   bool
	done      bool
}

// NewRun binds a validated graph to a session and task manager.
func NewRun(g *Graph, sess *core.Session, tm *core.TaskManager) (*Run, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	r := &Run{
		graph: g, sess: sess, tm: tm,
		byUID:     make(map[string]*Node),
		remaining: len(g.order),
	}
	// Materialize reverse edges and dependency counters.
	for _, n := range g.order {
		n.remaining = len(n.After)
		n.state = nodeWaiting
		for _, dep := range n.After {
			parent := g.nodes[dep]
			parent.children = append(parent.children, n)
		}
	}
	tm.OnComplete = r.taskCompleted
	return r, nil
}

// Start submits all root nodes.
func (r *Run) Start() error {
	if r.started {
		return fmt.Errorf("workflow: run already started")
	}
	r.started = true
	roots := 0
	for _, n := range r.graph.order {
		if n.remaining == 0 {
			r.fire(n)
			roots++
		}
	}
	if roots == 0 {
		return fmt.Errorf("workflow: no root nodes")
	}
	return nil
}

func (r *Run) fire(n *Node) {
	n.state = nodeRunning
	n.Submitted = r.sess.Engine.Now()
	n.pending = len(n.Tasks)
	for _, td := range n.Tasks {
		if td.Stage == "" {
			td.Stage = n.Name
		}
	}
	submitted := r.tm.Submit(n.Tasks)
	for _, tk := range submitted {
		r.byUID[tk.TD.UID] = n
	}
}

func (r *Run) taskCompleted(t *agent.Task) {
	n, ok := r.byUID[t.TD.UID]
	if !ok || n.state != nodeRunning {
		return
	}
	if t.Trace.Failed {
		n.Failed++
	}
	n.pending--
	if n.pending > 0 {
		return
	}
	n.state = nodeDone
	n.Completed = r.sess.Engine.Now()
	r.remaining--
	for _, child := range n.children {
		child.remaining--
		if child.remaining == 0 && child.state == nodeWaiting {
			r.fire(child)
		}
	}
	r.done = r.remaining == 0
}

// CriticalPath returns the longest submitted→completed chain length through
// the executed graph in virtual seconds (0 before completion).
func (r *Run) CriticalPath() float64 {
	if !r.done {
		return 0
	}
	memo := make(map[string]float64)
	var longest func(n *Node) float64
	longest = func(n *Node) float64 {
		if v, ok := memo[n.Name]; ok {
			return v
		}
		span := n.Completed.Sub(n.Submitted).Seconds()
		best := 0.0
		for _, dep := range n.After {
			if v := longest(r.graph.nodes[dep]); v > best {
				best = v
			}
		}
		memo[n.Name] = best + span
		return memo[n.Name]
	}
	best := 0.0
	for _, n := range r.graph.order {
		if v := longest(n); v > best {
			best = v
		}
	}
	return best
}
