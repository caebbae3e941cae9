package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"

	janus "repro"
	"repro/internal/obs"
)

// serveModel is the -trace/-profile fixture: a batch-parallel two-layer MLP.
const serveModel = `
def predict(x):
    w1 = variable("w1", [16, 32])
    w2 = variable("w2", [32, 8])
    return matmul(relu(matmul(x, w1)), w2)
`

// traceBench exercises the request-phase tracing path end to end: it boots
// an in-process janusd, performs real fn.Call requests over HTTP (the
// direct args path, so the engine's convert/compile/execute spans land in
// the request trace), then dumps GET /v1/trace as a per-phase breakdown.
func traceBench(calls int) {
	if calls < 1 {
		calls = 1
	}
	srv := janus.NewServer(janus.ServerOptions{
		PoolSize: 2,
		Options:  janus.Options{Seed: 42, ProfileIterations: 1},
	})
	if _, err := srv.Compile(serveModel); err != nil {
		fmt.Fprintf(os.Stderr, "trace bench: compile: %v\n", err)
		os.Exit(1)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	row := make([]float64, 16)
	for i := range row {
		row[i] = float64(i) * 0.1
	}
	body, _ := json.Marshal(map[string]any{
		"fn": "predict", "args": []any{[][]float64{row}},
	})
	// First call profiles + converts; later calls replay the cached graph —
	// the trace log holds both shapes of the phase breakdown.
	for i := 0; i < calls; i++ {
		resp, err := http.Post(ts.URL+"/v1/call", "application/json", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace bench: call: %v\n", err)
			os.Exit(1)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "trace bench: call -> %d\n", resp.StatusCode)
			os.Exit(1)
		}
	}

	resp, err := http.Get(fmt.Sprintf("%s/v1/trace?n=%d", ts.URL, calls))
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace bench: /v1/trace: %v\n", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	var out struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fmt.Fprintf(os.Stderr, "trace bench: decode: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%d traced fn.Call requests (newest first, spans as a tree):\n", len(out.Traces))
	for _, tr := range out.Traces {
		fmt.Printf("\n%s  total %.1fus", tr.ID, tr.TotalUS)
		if len(tr.Annotations) > 0 {
			keys := make([]string, 0, len(tr.Annotations))
			for k := range tr.Annotations {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  %s=%s", k, tr.Annotations[k])
			}
		}
		fmt.Println()
		printSpanTree(tr.Spans, tr.TotalUS)
	}
}

// printSpanTree renders a trace's spans as an indented tree: children
// under their parents, siblings in start order. Orphans (a parent span
// that never closed, or a grafted subtree whose anchor is missing) are
// promoted to roots rather than dropped.
func printSpanTree(spans []obs.SpanSnapshot, totalUS float64) {
	present := make(map[obs.SpanID]bool, len(spans))
	for _, sp := range spans {
		present[sp.ID] = true
	}
	children := make(map[obs.SpanID][]obs.SpanSnapshot)
	for _, sp := range spans {
		parent := sp.Parent
		if parent != 0 && !present[parent] {
			parent = 0
		}
		children[parent] = append(children[parent], sp)
	}
	var walk func(parent obs.SpanID, depth int)
	walk = func(parent obs.SpanID, depth int) {
		kids := children[parent]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		for _, sp := range kids {
			name := strings.Repeat("  ", depth) + sp.Name
			pct := 0.0
			if totalUS > 0 {
				pct = 100 * sp.DurUS / totalUS
			}
			fmt.Printf("  %-24s +%9.1fus  %9.1fus  (%4.1f%%)\n",
				name, sp.StartUS, sp.DurUS, pct)
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
}
