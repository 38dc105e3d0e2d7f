package obs

// Fuzz targets for the two readers of outside input: the JSONL spill
// reader and the exposition parser. cmd/rptrace runs both on whatever file
// it is given, so neither may panic, and whatever they accept must survive
// a trip back through the writer's own format.

import (
	"bytes"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rpgo/internal/profiler"
)

// FuzzReadRecords feeds arbitrary bytes to ReadRecords. Every task,
// transfer and request record it yields must convert to its trace and back
// to the same record: edges of a kind no release wrote drop out, and an
// empty edge list comes back as none.
func FuzzReadRecords(f *testing.F) {
	var spill bytes.Buffer
	s := NewJSONL(&spill)
	s.OnTask(sampleTask())
	s.OnTransfer(sampleTransfer())
	s.OnRequest(sampleRequest())
	failed := profiler.NewTaskTrace("task.0007")
	failed.Submit, failed.Final, failed.Failed, failed.Retries = 1_000_000, 9_000_000, true, 2
	failed.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeRetry, From: 3_000_000, To: 5_000_000, Ref: "spawn"})
	s.OnTask(failed)
	s.WriteShard(ShardRecord{Shard: 1, Windows: 3})
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(spill.Bytes())
	f.Add([]byte(`{"task":{"uid":"t.0","submit":0,"scheduled":-1,"launch":-1,"start":-1,"end":-1,"final":5,` +
		`"edges":[{"kind":"wormhole","from":0,"to":5},{"kind":"queued","from":1,"to":2}]}}` + "\n"))
	f.Add([]byte("{\"task\":{\"uid\":\"a\"}}\nnot json\n"))
	f.Add([]byte(`{"transfer":{"dataset":"d","edges":[]},"request":{"uid":"r","edges":[null]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ReadRecords(bytes.NewReader(data), func(rec *Record) error {
			if r := rec.Task; r != nil {
				want := *r
				want.Edges = knownEdges(r.Edges)
				if got := NewTaskRecord(r.Trace()); !reflect.DeepEqual(got, want) {
					t.Errorf("task record round trip:\n got %+v\nwant %+v", got, want)
				}
			}
			if r := rec.Transfer; r != nil {
				want := *r
				want.Edges = knownEdges(r.Edges)
				if got := NewTransferRecord(r.Trace()); !reflect.DeepEqual(got, want) {
					t.Errorf("transfer record round trip:\n got %+v\nwant %+v", got, want)
				}
			}
			if r := rec.Request; r != nil {
				want := *r
				want.Edges = knownEdges(r.Edges)
				if got := NewRequestRecord(r.Trace()); !reflect.DeepEqual(got, want) {
					t.Errorf("request record round trip:\n got %+v\nwant %+v", got, want)
				}
			}
			return nil
		})
	})
}

// knownEdges is recs less the edges whose kind no release wrote, nil when
// none is left.
func knownEdges(recs []EdgeRecord) []EdgeRecord {
	var out []EdgeRecord
	for _, r := range recs {
		if _, ok := profiler.EdgeKindFromString(r.Kind); ok {
			out = append(out, r)
		}
	}
	return out
}

// promIdent matches the metric and label names the writer emits.
var promIdent = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// FuzzParseExposition feeds arbitrary text to ParseExposition. Every
// sample it accepts whose metric and label names are legal must render in
// the writer's format and parse back to itself: name, labels and value.
func FuzzParseExposition(f *testing.F) {
	f.Add(exposition(introspectSnapshot()))
	f.Add("rp_test{path=\"" + promEscape("a\\b\"c\nd") + "\",shard=\"0\"} 1\n")
	for _, bad := range []string{"rp_x one\n", "rp_y{shard=\"0\" 3\n", "rp_z{shard=0} 3\n", "just_a_name\n"} {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, smp := range samples {
			if !promIdent.MatchString(smp.Name) {
				continue
			}
			labels := make([]promLabel, 0, len(smp.Labels))
			legal := true
			for k, v := range smp.Labels {
				legal = legal && promIdent.MatchString(k)
				labels = append(labels, promLabel{k, v})
			}
			if !legal {
				continue
			}
			sort.Slice(labels, func(i, j int) bool { return labels[i].k < labels[j].k })
			line := smp.Name + labelString(labels) + " " + formatValue(smp.Value) + "\n"
			back, err := ParseExposition(strings.NewReader(line))
			if err != nil || len(back) != 1 {
				t.Fatalf("%q parsed as %+v renders as %q, which parses as %+v, %v", text, smp, line, back, err)
			}
			got := back[0]
			sameValue := got.Value == smp.Value || math.IsNaN(got.Value) && math.IsNaN(smp.Value)
			if got.Name != smp.Name || !sameValue || len(got.Labels) != len(smp.Labels) ||
				len(got.Labels) > 0 && !reflect.DeepEqual(got.Labels, smp.Labels) {
				t.Fatalf("%q parsed as %+v renders as %q, which parses as %+v", text, smp, line, got)
			}
		}
	})
}
