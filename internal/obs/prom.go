package obs

// Prometheus/OpenMetrics text exposition for registry snapshots — the wire
// format behind the monitor's /metrics endpoint. Snapshot keys map to
// metric families under an rp_ prefix: every non-[a-zA-Z0-9_] rune folds to
// '_', and a "shardN." key prefix becomes a shard="N" label so per-shard
// series of one quantity land in one family. Counters gain the _total
// suffix, and gauges expose last/max through a stat label. Output is byte-
// deterministic: families and samples are emitted in sorted order.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

type promLabel struct{ k, v string }

type promSample struct {
	suffix string // appended to the family name: "" or "_total"
	labels []promLabel
	value  float64
}

type promFamily struct {
	name    string // full family name, rp_-prefixed
	typ     string // counter | gauge
	samples []promSample
}

// promSanitize folds every rune outside [a-zA-Z0-9_] to '_'.
func promSanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitShardKey recognizes the ShardedSession "shard<N>." key prefix and
// returns the shard index and the remainder.
func splitShardKey(key string) (shard, rest string, ok bool) {
	if !strings.HasPrefix(key, "shard") {
		return "", "", false
	}
	i := len("shard")
	j := i
	for j < len(key) && key[j] >= '0' && key[j] <= '9' {
		j++
	}
	if j == i || j >= len(key) || key[j] != '.' {
		return "", "", false
	}
	return key[i:j], key[j+1:], true
}

// promName maps a snapshot key to a metric family name and its intrinsic
// labels (the shard label, when the key carries a shard prefix).
func promName(key string) (string, []promLabel) {
	var labels []promLabel
	if shard, rest, ok := splitShardKey(key); ok {
		labels = []promLabel{{"shard", shard}}
		key = "shard." + rest
	}
	return "rp_" + promSanitize(key), labels
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func labelString(labels []promLabel) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.k)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteOpenMetrics renders the snapshot in Prometheus/OpenMetrics text
// exposition. Output is byte-deterministic for a given snapshot.
func WriteOpenMetrics(w io.Writer, s *Snapshot) error {
	fams := make(map[string]*promFamily)
	fam := func(name, typ string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		return f
	}

	for key, v := range s.Counters {
		name, labels := promName(key)
		f := fam(name, "counter")
		f.samples = append(f.samples, promSample{suffix: "_total", labels: labels, value: v})
	}
	for key, g := range s.Gauges {
		name, labels := promName(key)
		f := fam(name, "gauge")
		f.samples = append(f.samples,
			promSample{labels: append(labels[:len(labels):len(labels)], promLabel{"stat", "last"}), value: g.Last},
			promSample{labels: append(labels[:len(labels):len(labels)], promLabel{"stat", "max"}), value: g.Max})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	for _, n := range names {
		f := fams[n]
		sort.Slice(f.samples, func(i, j int) bool {
			a, b := f.samples[i], f.samples[j]
			if a.suffix != b.suffix {
				return a.suffix < b.suffix
			}
			return labelString(a.labels) < labelString(b.labels)
		})
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, smp := range f.samples {
			fmt.Fprintf(bw, "%s%s%s %s\n", f.name, smp.suffix, labelString(smp.labels), formatValue(smp.value))
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// ExpositionString renders the snapshot to a string (see WriteOpenMetrics).
func ExpositionString(s *Snapshot) string {
	var b strings.Builder
	_ = WriteOpenMetrics(&b, s)
	return b.String()
}

// ParsedSample is one sample line read back from a text exposition.
type ParsedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Key renders the sample as name{labels} with labels sorted — a canonical
// identity for round-trip comparisons.
func (p ParsedSample) Key() string {
	if len(p.Labels) == 0 {
		return p.Name
	}
	ks := make([]string, 0, len(p.Labels))
	for k := range p.Labels {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	b.WriteString(p.Name)
	b.WriteByte('{')
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, p.Labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// ParseExposition reads a Prometheus/OpenMetrics text exposition back into
// samples. It is a minimal parser for the subset WriteOpenMetrics emits —
// comment/TYPE lines are skipped, label values are unescaped — and it
// errors on structurally malformed lines, which is exactly what the CI
// smoke check wants to catch.
func ParseExposition(r io.Reader) ([]ParsedSample, error) {
	var out []ParsedSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		smp, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, smp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (ParsedSample, error) {
	var smp ParsedSample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		smp.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return smp, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[i+1 : end])
		if err != nil {
			return smp, err
		}
		smp.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return smp, fmt.Errorf("want 'name value', got %q", line)
		}
		smp.Name = fields[0]
		rest = fields[1]
	}
	if smp.Name == "" {
		return smp, fmt.Errorf("empty metric name in %q", line)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return smp, fmt.Errorf("bad value in %q: %w", line, err)
	}
	smp.Value = v
	return smp, nil
}

func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					b.WriteByte('\n')
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				default:
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		labels[key] = b.String()
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
	return labels, nil
}
