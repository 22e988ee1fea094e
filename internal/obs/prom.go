package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time metrics export: an ordered list of metric
// families ready for serialization. Engines build one per scrape; the
// format writers never touch live state.
type Snapshot struct {
	Families []Family
}

// Family is one metric family (one # HELP / # TYPE block).
type Family struct {
	Name string
	Help string
	// Type is "counter", "gauge" or "histogram".
	Type    string
	Samples []Sample
}

// Label is one name="value" pair.
type Label struct {
	Name, Value string
}

// Sample is one sample within a family. Histogram samples carry Hist and
// ignore Value.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistSnapshot
}

// HistSnapshot is a histogram in Prometheus export form, built from a
// digest by DigestSnapshot.Hist. Counts are per-bucket (not cumulative);
// Counts[len(Bounds)] is the overflow (+Inf) bucket. Bounds are inclusive
// upper bounds in the exported unit.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64 // exported unit
	Count  uint64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in the exported unit from
// bucket upper bounds; it returns 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(s.Count))
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		if cum > target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Bounds[len(s.Bounds)-1] // overflow: report the last bound
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// WritePrometheus serializes a snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric and label names are sanitized to the
// legal character set, label values are escaped, and non-finite values
// (NaN/±Inf, e.g. from an empty meter) are written as 0 so a scraper never
// chokes on them.
func WritePrometheus(w io.Writer, s Snapshot) error {
	for _, f := range s.Families {
		name := sanitizeName(f.Name)
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		typ := f.Type
		switch typ {
		case "counter", "gauge", "histogram":
		default:
			typ = "untyped"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		for _, sm := range f.Samples {
			if typ == "histogram" && sm.Hist != nil {
				if err := writeHistSample(w, name, sm); err != nil {
					return err
				}
				continue
			}
			if err := writeSample(w, name, sm.Labels, "", "", sm.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistSample emits the _bucket/_sum/_count triplet for one histogram
// sample. Buckets are cumulative; trailing all-zero buckets before the
// +Inf bucket are elided to keep scrapes compact.
func writeHistSample(w io.Writer, name string, sm Sample) error {
	h := sm.Hist
	last := -1
	for i := 0; i < len(h.Bounds) && i < len(h.Counts); i++ {
		if h.Counts[i] != 0 {
			last = i
		}
	}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.Counts[i]
		le := strconv.FormatFloat(h.Bounds[i], 'g', -1, 64)
		if err := writeSample(w, name+"_bucket", sm.Labels, "le", le, float64(cum)); err != nil {
			return err
		}
	}
	if err := writeSample(w, name+"_bucket", sm.Labels, "le", "+Inf", float64(h.Count)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", sm.Labels, "", "", h.Sum); err != nil {
		return err
	}
	return writeSample(w, name+"_count", sm.Labels, "", "", float64(h.Count))
}

// writeSample emits one sample line, appending the extra label (used for
// le) when extraName is nonempty.
func writeSample(w io.Writer, name string, labels []Label, extraName, extraValue string, v float64) error {
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(sanitizeLabelName(l.Name))
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extraName)
			b.WriteString(`="`)
			b.WriteString(extraValue)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue renders a float, coercing non-finite values to 0 so empty
// meters and division artifacts never leak NaN/Inf into the exposition.
func formatValue(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "0"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sanitizeName coerces s into a legal metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*): illegal runes become '_' and an empty or
// digit-led name gains a '_' prefix.
func sanitizeName(s string) string { return sanitize(s, true) }

// sanitizeLabelName is sanitizeName for label names, where ':' is not in
// the legal character set ([a-zA-Z_][a-zA-Z0-9_]*).
func sanitizeLabelName(s string) string { return sanitize(s, false) }

func sanitize(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		ch := s[i]
		ok := ch == '_' || (ch == ':' && allowColon) ||
			(ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
			(ch >= '0' && ch <= '9' && i > 0)
		if !ok {
			if ch >= '0' && ch <= '9' { // digit-led name
				b.WriteByte('_')
				b.WriteByte(ch)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteByte(ch)
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline. Other control bytes are replaced so
// the output stays line-oriented.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\r', '\t':
			b.WriteByte(' ')
		default:
			if r < 0x20 {
				b.WriteByte(' ')
				continue
			}
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only, per the
// format).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
