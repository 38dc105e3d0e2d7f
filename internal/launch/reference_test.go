package launch

import (
	"fmt"

	"rpgo/internal/platform"
	"rpgo/internal/sim"
	"rpgo/internal/spec"
)

// refPlaceMultiNode is the multi-node placement the scratch-slice version
// replaced, kept as the reference it must match exactly: a map of taken
// IDs probed for every node visited, ids grown by append and kept as the
// placement's NodeIDs.
func refPlaceMultiNode(p *Placer, at sim.Time, td *spec.TaskDescription, prefer []int) *platform.Placement {
	p.stats.Attempts++
	want := td.Nodes
	spec := p.part.Cluster.Spec
	coresPerNode, gpusPerNode := perNodeFootprint(td)
	if coresPerNode > spec.Slots() || gpusPerNode > spec.GPUs {
		panic(fmt.Sprintf("launch: task %s per-node footprint (%d cores, %d gpus) exceeds node", td.UID, coresPerNode, gpusPerNode))
	}
	if p.cannotFit(coresPerNode, gpusPerNode) {
		return nil
	}
	var ids []int
	taken := make(map[int]bool)
	for _, id := range prefer {
		if len(ids) == want {
			break
		}
		if taken[id] {
			continue
		}
		if node := p.preferredNode(id, coresPerNode, gpusPerNode); node != nil {
			ids = append(ids, node.ID)
			taken[node.ID] = true
		}
	}
	for _, node := range p.part.Nodes {
		if len(ids) == want {
			break
		}
		if taken[node.ID] {
			continue
		}
		if node.FreeCPU() >= coresPerNode && node.FreeGPU() >= gpusPerNode {
			ids = append(ids, node.ID)
		}
	}
	if len(ids) < want {
		p.stats.ScanFailures++
		return nil
	}
	pl := &platform.Placement{NodeIDs: ids, Cores: coresPerNode, GPUs: gpusPerNode}
	if err := p.part.Claim(at, pl); err != nil {
		panic(fmt.Sprintf("launch: multi-node claim after fit check failed: %v", err))
	}
	p.stats.Placed++
	return pl
}
