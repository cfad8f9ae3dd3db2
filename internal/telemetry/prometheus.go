package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled so the
// serving layer can expose metrics without importing a client library.
//
// Instrument names map to metric families by sanitizing every character
// outside [a-zA-Z0-9_:] to '_' and prefixing "toporouting_":
// "server.jobs_admitted" becomes "toporouting_server_jobs_admitted".
// A registry name may carry labels in curly-brace form — produce one with
// LabeledName — and each distinct label set becomes one series of the
// shared family. Instrument kinds map to exposition types: Counter →
// counter, Gauge → gauge, BucketHistogram → histogram (cumulative "le"
// buckets, _sum, _count). No summary family is written; quantiles are
// left to the scraper's histogram_quantile.

// LabeledName renders an instrument name with an attached label set, e.g.
// LabeledName("http.requests", "code", "200", "endpoint", "/v1/topology")
// → `http.requests{code="200",endpoint="/v1/topology"}`. Pairs are sorted
// by key so equal label sets always produce the same registry key. The
// label syntax is understood by WritePrometheus; in JSON snapshots the
// decorated name simply appears verbatim.
func LabeledName(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("telemetry: LabeledName needs key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promFamily splits a registry name into its sanitized family name and
// label block ("" when unlabeled).
func promFamily(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name, labels = name[:i], name[i:]
	}
	var b strings.Builder
	b.Grow(len("toporouting_") + len(name))
	b.WriteString("toporouting_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), labels
}

// withLabels merges extra label pairs into an existing label block.
func withLabels(labels string, kv ...string) string {
	var parts []string
	if labels != "" {
		parts = append(parts, strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}"))
	}
	for i := 0; i < len(kv); i += 2 {
		parts = append(parts, kv[i]+`="`+escapeLabelValue(kv[i+1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// series is one exposition line under a family. The sort key is semantic,
// not lexicographic: series group by their identifying labels (le
// excluded), buckets order by their numeric le (+Inf last), and
// _sum/_count trail their buckets.
type series struct {
	suffix string // appended to the family name (_bucket, _sum, _count, "")
	labels string
	value  string
	group  string  // label block minus the le pair
	rank   int     // 0 = data row, 1 = _sum, 2 = _count
	sub    float64 // le value within rank 0
}

type family struct {
	name string
	typ  string
	rows []series
}

// WritePrometheus renders a snapshot of every instrument in t as
// Prometheus text exposition. Families are name-sorted and series within
// a family are label-sorted, so output is deterministic for a quiesced
// registry. A nil scope writes nothing (an empty, valid exposition).
func WritePrometheus(w io.Writer, t *Telemetry) error {
	if t == nil {
		return nil
	}
	m := t.Snapshot()
	fams := map[string]*family{}
	add := func(name, typ string, s series) {
		f, ok := fams[name]
		if !ok {
			f = &family{name: name, typ: typ}
			fams[name] = f
		}
		f.rows = append(f.rows, s)
	}

	for name, v := range m.Counters {
		fam, labels := promFamily(name)
		add(fam, "counter", series{labels: labels, group: labels, value: strconv.FormatInt(v, 10)})
	}
	for name, v := range m.Gauges {
		fam, labels := promFamily(name)
		add(fam, "gauge", series{labels: labels, group: labels, value: promFloat(v)})
	}
	for name, s := range m.Buckets {
		fam, labels := promFamily(name)
		for i, b := range s.Bounds {
			add(fam, "histogram", series{suffix: "_bucket",
				labels: withLabels(labels, "le", promFloat(b)),
				group:  labels, sub: b,
				value: strconv.FormatUint(s.Cumulative[i], 10)})
		}
		inf := uint64(0)
		if n := len(s.Cumulative); n > 0 {
			inf = s.Cumulative[n-1]
		}
		add(fam, "histogram", series{suffix: "_bucket",
			labels: withLabels(labels, "le", "+Inf"),
			group:  labels, sub: math.Inf(1),
			value: strconv.FormatUint(inf, 10)})
		add(fam, "histogram", series{suffix: "_sum", labels: labels, group: labels, rank: 1,
			value: promFloat(s.Sum)})
		add(fam, "histogram", series{suffix: "_count", labels: labels, group: labels, rank: 2,
			value: strconv.FormatUint(inf, 10)})
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		sort.SliceStable(f.rows, func(i, j int) bool {
			a, b := f.rows[i], f.rows[j]
			if a.group != b.group {
				return a.group < b.group
			}
			if a.rank != b.rank {
				return a.rank < b.rank
			}
			return a.sub < b.sub
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, r := range f.rows {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", f.name, r.suffix, r.labels, r.value); err != nil {
				return err
			}
		}
	}
	return nil
}
