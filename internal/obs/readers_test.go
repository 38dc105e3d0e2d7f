package obs

import (
	"errors"
	"strings"
	"testing"
)

// TestReadersRejectMalformedInput: the three readers rptrace runs on
// outside files name what is wrong with a malformed line, and the spill
// reader skips blank lines and stops at its callback's error.
func TestReadersRejectMalformedInput(t *testing.T) {
	for _, c := range []struct{ text, want string }{
		{"{shard=\"0\"} 1\n", `empty metric name in "{shard=\"0\"} 1"`},
		{"rp_a{shard} 1\n", `label without '=' in "shard"`},
		{"rp_a{shard=\"0} 1\n", `unterminated label value in "shard=\"0"`},
	} {
		_, err := ParseExposition(strings.NewReader(c.text))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseExposition(%q): %v, want %s", c.text, err, c.want)
		}
	}
	got, err := ParseExposition(strings.NewReader("rp_a{path=\"x\\qy\"} 1\n"))
	if err != nil || len(got) != 1 || got[0].Labels["path"] != "xqy" {
		t.Errorf("an unknown escape keeps its character: %+v, %v", got, err)
	}

	stop := errors.New("stop")
	n := 0
	err = ReadRecords(strings.NewReader("\n{\"task\":{\"uid\":\"a\"}}\n\n{\"task\":{\"uid\":\"b\"}}\n"),
		func(*Record) error { n++; return stop })
	if err != stop || n != 1 {
		t.Errorf("ReadRecords: %d records, %v; want the first record and its callback's error", n, err)
	}

	_, err = ValidateTraceEvents(strings.NewReader(`{"traceEvents":[{"name":"x","ph":"X"},7]}`))
	if err == nil || !strings.HasPrefix(err.Error(), "obs: event 1: ") {
		t.Errorf("ValidateTraceEvents on a number event: %v, want an error naming event 1", err)
	}
}
