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

// FuzzReadRecords feeds arbitrary bytes to ReadRecords. Every record it
// yields must encode as the sink encodes it and decode again to the same
// record: edges of a kind that is not known are already gone, and an
// empty edge list reads as none.
func FuzzReadRecords(f *testing.F) {
	var spill bytes.Buffer
	s := NewJSONL(&spill)
	pinRecords(s)
	failed := profiler.NewTaskTrace("task.0007")
	failed.Submit, failed.Final, failed.Failed, failed.Retries = 1_000_000, 9_000_000, true, 2
	failed.AddEdge(profiler.CausalEdge{Kind: profiler.EdgeRetry, From: 3_000_000, To: 5_000_000, Ref: "spawn"})
	s.OnTask(failed)
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(spill.Bytes())
	f.Add([]byte(unknownEdgesLine))
	f.Add([]byte(nonObjectEdgeLine))
	f.Add([]byte("{\"task\":{\"uid\":\"a\"}}\nnot json\n"))
	f.Add([]byte(`{"transfer":{"dataset":"d","edges":[]},"request":{"uid":"r","edges":[null]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ReadRecords(bytes.NewReader(data), func(rec *Record) error {
			var line bytes.Buffer
			s := NewJSONL(&line)
			s.write(*rec)
			if err := s.Flush(); err != nil {
				t.Fatalf("%+v does not encode: %v", rec, err)
			}
			var back *Record
			if err := ReadRecords(bytes.NewReader(line.Bytes()), func(r *Record) error { back = r; return nil }); err != nil {
				t.Fatalf("%s does not decode: %v", line.Bytes(), err)
			}
			if !reflect.DeepEqual(back, rec) {
				t.Errorf("record round trip through %s:\n got %+v\nwant %+v", line.Bytes(), back, rec)
			}
			return nil
		})
	})
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
