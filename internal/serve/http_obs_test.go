package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// postCall sends one /v1/call for fn with a [[1,2]] arg, optionally
// carrying a Janus-Trace header, and fails the test on any non-200.
func postCall(t *testing.T, ts *httptest.Server, fn, traceHeader string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"fn": fn, "args": []any{[][]float64{{1, 2}}},
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/call", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/call -> %d", resp.StatusCode)
	}
}

// TestHTTPTraceTreeAndHeaderAdoption drives real requests through the
// serving front end and checks GET /v1/trace renders them as span trees:
// a root "request" span with the engine's phase spans parented beneath
// it, and an inbound Janus-Trace header adopting the caller's trace ID.
func TestHTTPTraceTreeAndHeaderAdoption(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 1, Engine: janusConfig(1)})
	srv := NewServerWith(p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// First call profiles + compiles, a later call replays; the last call
	// carries a propagated trace header from a fictitious upstream.
	for i := 0; i < 3; i++ {
		postCall(t, ts, "predict", "")
	}
	postCall(t, ts, "predict", "upstream-7;3")

	resp, err := ts.Client().Get(ts.URL + "/v1/trace?n=8")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Traces) != 4 {
		t.Fatalf("traces = %d, want 4", len(out.Traces))
	}
	// Newest first: the header-carrying request adopted the upstream ID.
	if out.Traces[0].ID != "upstream-7" {
		t.Fatalf("propagated trace ID = %q, want \"upstream-7\"", out.Traces[0].ID)
	}
	for _, tr := range out.Traces {
		if tr.Annotations["fn"] != "predict" {
			t.Errorf("trace %s fn = %q", tr.ID, tr.Annotations["fn"])
		}
		var root *obs.SpanSnapshot
		for i := range tr.Spans {
			if tr.Spans[i].Name == "request" {
				if root != nil {
					t.Fatalf("trace %s has two request spans", tr.ID)
				}
				root = &tr.Spans[i]
			}
		}
		if root == nil || root.Parent != 0 {
			t.Fatalf("trace %s has no root request span: %+v", tr.ID, tr.Spans)
		}
		// Every other span hangs off the tree (parent present), and at
		// least one engine phase span is a direct child of the root.
		ids := map[obs.SpanID]bool{}
		for _, sp := range tr.Spans {
			ids[sp.ID] = true
		}
		phaseUnderRoot := false
		for _, sp := range tr.Spans {
			if sp.ID == root.ID {
				continue
			}
			if !ids[sp.Parent] {
				t.Errorf("trace %s: span %q parent %d not in trace", tr.ID, sp.Name, sp.Parent)
			}
			if sp.Parent == root.ID {
				phaseUnderRoot = true
			}
		}
		if !phaseUnderRoot {
			t.Errorf("trace %s: no engine span under the request root: %+v", tr.ID, tr.Spans)
		}
	}
}

// TestHTTPProfileAndExplainEndpoints covers the two new observability
// endpoints over live HTTP: profile payloads carry per-node op data once
// a graph is compiled, explain payloads describe the cache slots, and
// both 400 without ?fn= and 404 on unknown functions.
func TestHTTPProfileAndExplainEndpoints(t *testing.T) {
	p := newTestPool(t, Config{Workers: 2, MaxBatch: 1, Engine: janusConfig(1)})
	srv := NewServerWith(p)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 4; i++ {
		postCall(t, ts, "predict", "")
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/profile?fn=predict")
	if err != nil {
		t.Fatal(err)
	}
	var prof core.FuncProfile
	if err := json.NewDecoder(resp.Body).Decode(&prof); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/profile -> %d", resp.StatusCode)
	}
	if prof.Function != "predict" || len(prof.Graphs) == 0 {
		t.Fatalf("profile = %+v, want compiled graphs", prof)
	}
	g := prof.Graphs[0]
	if g.Profile.Runs == 0 || len(g.Profile.Nodes) == 0 {
		t.Fatalf("empty graph profile: %+v", g)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/explain?fn=predict")
	if err != nil {
		t.Fatal(err)
	}
	var rep core.ExplainReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/explain -> %d", resp.StatusCode)
	}
	if rep.Function != "predict" || len(rep.States) == 0 {
		t.Fatalf("explain = %+v, want cache states", rep)
	}

	for _, path := range []string{"/v1/profile", "/v1/explain"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s without fn -> %d, want 400", path, resp.StatusCode)
		}
		resp, err = ts.Client().Get(ts.URL + path + "?fn=nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s?fn=nope -> %d, want 404", path, resp.StatusCode)
		}
	}
}
