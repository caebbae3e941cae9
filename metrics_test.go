package janus

import (
	"bufio"
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// requiredMetricFamilies are the series families a janusd plus a janusps
// must expose: the names dashboards, the README's Observability section and
// the CI warm-boot check key on. A family that silently stops registering
// fails TestRequiredMetricFamilies by name.
var requiredMetricFamilies = []string{
	"janus_engine_phase_seconds",
	"janus_exec_plan_build_seconds",
	"janus_serve_requests_total",
	"janus_serve_batch_size",
	"janus_serve_batch_flushes_total",
	"janus_pool_gets_total",
	"janus_cache_entries",
	"janus_cache_evictions_total",
	"janus_ps_pushes_total",
	"janus_ps_pull_seconds",
	"janus_ps_staleness_steps",
	"janus_ps_retries_total",
	"janus_ps_faults_injected_total",
	"janus_ps_dup_drops_total",
	"janus_ps_lease_expiries_total",
	"janus_ps_rebalances_total",
	"janus_ps_shard_failovers_total",
	"janus_ps_snapshots_total",
	"janus_profile_op_seconds_total",
	"janus_profile_op_calls_total",
	"janus_deopt_total",
	"janus_pass_rewrites_total",
	"janus_artifact_saves_total",
	"janus_artifact_loads_total",
	"janus_artifact_rejected_total",
	"janus_bucket_padded_batches_total",
	"janus_bucket_pad_rows_total",
	"janus_bucket_relaxed_total",
}

// TestRequiredMetricFamilies scrapes a served model and a cluster's
// parameter server in process, as CI once scraped live janusd and janusps
// daemons, and requires a sample line for every required family.
func TestRequiredMetricFamilies(t *testing.T) {
	srv := NewServer(ServerOptions{Options: Options{Seed: 1}})
	prog, err := srv.Compile("def double(x):\n    return x * 2.0\n")
	if err != nil {
		t.Fatal(err)
	}
	double := prog.MustFunc("double")
	// Three profiling iterations, then compiled-graph replays, so the
	// always-on profiler's families have samples.
	for i := 0; i < 6; i++ {
		if _, err := double.Call(context.Background(), Feeds{"x": tensor.FromRows([][]float64{{1, 2}})}); err != nil {
			t.Fatal(err)
		}
	}
	cluster, err := NewCluster(regressionSrc, TrainOptions{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	var scrape bytes.Buffer
	if err := srv.WriteMetrics(&scrape); err != nil {
		t.Fatal(err)
	}
	if err := cluster.server.Registry().WriteText(&scrape); err != nil {
		t.Fatal(err)
	}

	// A sample line is `name{labels} value` or `name value`; a histogram's
	// _bucket/_sum/_count series fold into their family.
	present := map[string]bool{}
	for sc := bufio.NewScanner(&scrape); sc.Scan(); {
		line := sc.Text()
		if end := strings.IndexAny(line, "{ "); end > 0 && line[0] != '#' {
			name := line[:end]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
			present[name] = true
		}
	}
	for _, family := range requiredMetricFamilies {
		if !present[family] {
			t.Errorf("required series family %s is missing from the exposition", family)
		}
	}
}
