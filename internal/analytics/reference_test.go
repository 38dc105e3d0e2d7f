package analytics

import (
	"sort"

	"rpgo/internal/sim"
)

// refComputeBlame is the ComputeBlame the index sort replaced, kept as the
// reference it must match exactly: it copies every valid summary into a
// second slice and sorts the copies through sort.Slice.
func refComputeBlame(sums []TaskSummary) BlameReport {
	valid := make([]TaskSummary, 0, len(sums))
	for _, s := range sums {
		if s.Valid() {
			valid = append(valid, s)
		}
	}
	var rep BlameReport
	rep.Tasks = len(valid)
	if len(valid) == 0 {
		return rep
	}
	sort.Slice(valid, func(i, j int) bool {
		if valid[i].Final != valid[j].Final {
			return valid[i].Final < valid[j].Final
		}
		return valid[i].UID < valid[j].UID
	})
	start := valid[0].Submit
	for _, s := range valid {
		if s.Submit < start {
			start = s.Submit
		}
		if s.Failed {
			rep.Failed++
		}
	}
	rep.Start = start
	rep.End = valid[len(valid)-1].Final
	rep.Makespan = rep.End.Sub(rep.Start)

	cur := len(valid) - 1
	for {
		s := &valid[cur]
		rep.Blame.Add(s.Blame)
		link := ChainLink{UID: s.UID, From: s.Submit, To: s.Final}
		j := sort.Search(len(valid), func(i int) bool { return valid[i].Final > s.Submit }) - 1
		if j >= cur {
			j = cur - 1
		}
		if j < 0 {
			link.Gap = s.Submit.Sub(start)
			rep.Blame[BlameMiddleware] += link.Gap
			rep.Chain = append(rep.Chain, link)
			break
		}
		link.Gap = s.Submit.Sub(valid[j].Final)
		rep.Blame[BlameMiddleware] += link.Gap
		rep.Chain = append(rep.Chain, link)
		cur = j
	}
	return rep
}

// refCoverage is the coverage the typed sort replaced.
func refCoverage(ivs []iv) sim.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total sim.Duration
	cur := ivs[0]
	for _, v := range ivs[1:] {
		if v.lo <= cur.hi {
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
			continue
		}
		total += cur.hi.Sub(cur.lo)
		cur = v
	}
	return total + cur.hi.Sub(cur.lo)
}
