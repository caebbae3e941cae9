package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- minimal Prometheus text parser (the golden-test harness) ---

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses Prometheus text exposition format strictly enough to
// golden-test our writer: every non-comment line must be
// `name[{k="v",...}] value`, TYPE lines must precede their samples, and
// label values must be quoted.
func parseProm(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "NaN" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		labels := map[string]string{}
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels: %q", ln+1, line)
			}
			name = series[:i]
			for _, pair := range splitLabelPairs(series[i+1 : len(series)-1]) {
				eq := strings.Index(pair, "=")
				if eq < 0 {
					t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
				}
				k, quoted := pair[:eq], pair[eq+1:]
				if len(quoted) < 2 || quoted[0] != '"' || quoted[len(quoted)-1] != '"' {
					t.Fatalf("line %d: unquoted label value %q", ln+1, pair)
				}
				labels[k] = quoted[1 : len(quoted)-1]
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("line %d: sample %q precedes its TYPE line", ln+1, name)
			}
		}
		samples = append(samples, promSample{name: name, labels: labels, value: val})
	}
	return samples, types
}

// splitLabelPairs splits `k="v",k2="v2"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func findSample(samples []promSample, name string, labels map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return promSample{}, false
}

// TestExpositionGolden registers one of everything, drives known values
// through, and checks the rendered text parses back to exactly those
// values with the right TYPE lines.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("janus_test_events_total", "events", "kind", "a")
	c2 := r.Counter("janus_test_events_total", "events", "kind", "b")
	g := r.Gauge("janus_test_depth", "depth")
	h := r.Histogram("janus_test_latency_seconds", "latency", []float64{0.1, 1, 10}, "op", "x")
	r.GaugeFunc("janus_test_pool_in_use", "pool", func() float64 { return 7 })
	r.GaugeFunc("janus_test_pool_in_use", "pool", func() float64 { return 5 }) // additive merge
	r.CounterFunc("janus_test_ops_total", "ops", func() float64 { return 42 })

	c.Add(3)
	c2.Inc()
	g.Set(-2)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, types := parseProm(t, sb.String())

	wantTypes := map[string]string{
		"janus_test_events_total":    "counter",
		"janus_test_depth":           "gauge",
		"janus_test_latency_seconds": "histogram",
		"janus_test_pool_in_use":     "gauge",
		"janus_test_ops_total":       "counter",
	}
	for name, typ := range wantTypes {
		if types[name] != typ {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], typ)
		}
	}

	checks := []struct {
		name   string
		labels map[string]string
		want   float64
	}{
		{"janus_test_events_total", map[string]string{"kind": "a"}, 3},
		{"janus_test_events_total", map[string]string{"kind": "b"}, 1},
		{"janus_test_depth", nil, -2},
		{"janus_test_pool_in_use", nil, 12},
		{"janus_test_ops_total", nil, 42},
		{"janus_test_latency_seconds_bucket", map[string]string{"op": "x", "le": "0.1"}, 1},
		{"janus_test_latency_seconds_bucket", map[string]string{"op": "x", "le": "1"}, 3},
		{"janus_test_latency_seconds_bucket", map[string]string{"op": "x", "le": "10"}, 4},
		{"janus_test_latency_seconds_bucket", map[string]string{"op": "x", "le": "+Inf"}, 5},
		{"janus_test_latency_seconds_count", map[string]string{"op": "x"}, 5},
		{"janus_test_latency_seconds_sum", map[string]string{"op": "x"}, 56.05},
	}
	for _, chk := range checks {
		s, ok := findSample(samples, chk.name, chk.labels)
		if !ok {
			t.Errorf("missing sample %s%v", chk.name, chk.labels)
			continue
		}
		if math.Abs(s.value-chk.want) > 1e-9 {
			t.Errorf("%s%v = %v, want %v", chk.name, chk.labels, s.value, chk.want)
		}
	}
}

// TestRegistryGetOrCreate pins the identity contract: same (name, labels)
// returns the same instrument.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", "k", "v")
	b := r.Counter("x_total", "x", "k", "v")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	if c := r.Counter("x_total", "x", "k", "w"); c == a {
		t.Fatal("distinct labels shared a counter")
	}
	a.Add(2)
	b.Inc()
	vals := r.Series("x_total")
	if len(vals) != 2 {
		t.Fatalf("Series = %v, want 2 series", vals)
	}
	found := false
	for _, sv := range vals {
		if LabelValue(sv.Labels, "k") == "v" {
			found = true
			if sv.Value != 3 {
				t.Fatalf("shared counter = %v, want 3", sv.Value)
			}
		}
	}
	if !found {
		t.Fatal("labelled series not found in Series()")
	}
}

// TestTraceSpans pins span bookkeeping, annotations, nil-safety, and the
// ring log's newest-first ordering.
func TestTraceSpans(t *testing.T) {
	var nilTrace *Trace
	nilTrace.StartSpan("x").End() // must not panic
	nilTrace.Annotate("a", "b")
	nilTrace.Finish()

	tr := NewTrace("req-1")
	sp := tr.StartSpan("convert")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Annotate("path", "graph")
	tr.Finish()
	snap := tr.Snapshot()
	if snap.ID != "req-1" || len(snap.Spans) != 1 || snap.Spans[0].Name != "convert" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Spans[0].DurUS <= 0 || snap.TotalUS < snap.Spans[0].DurUS {
		t.Fatalf("span timing implausible: %+v", snap)
	}
	if snap.Annotations["path"] != "graph" {
		t.Fatalf("annotations = %v", snap.Annotations)
	}

	log := NewTraceLog(2)
	for i := 0; i < 3; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i))
		tr.Finish()
		log.Add(tr)
	}
	got := log.Snapshot(0)
	if len(got) != 2 || got[0].ID != "req-2" || got[1].ID != "req-1" {
		t.Fatalf("ring snapshot = %+v", got)
	}
}

// TestRegistryConcurrentWriters hammers one registry from many goroutines
// mixing registration, recording and exposition (run under -race in CI).
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("conc_total", "c", "w", strconv.Itoa(w%2))
			h := r.Histogram("conc_seconds", "h", DefBuckets)
			g := r.Gauge("conc_depth", "g")
			for i := 0; i < 2000; i++ {
				c.Inc()
				h.Observe(float64(i%17) * 1e-5)
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sb strings.Builder
			for i := 0; i < 50; i++ {
				sb.Reset()
				r.WriteText(&sb)
			}
		}()
	}
	wg.Wait()
	var total float64
	for _, sv := range r.Series("conc_total") {
		total += sv.Value
	}
	if total != 8*2000 {
		t.Fatalf("lost counter increments: %v", total)
	}
	if r.Histogram("conc_seconds", "h", DefBuckets).Count() != 8*2000 {
		t.Fatal("lost histogram observations")
	}
}
