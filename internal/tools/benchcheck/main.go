// Command benchcheck is the CI benchmark-regression gate: it reads the
// machine-readable reports `janusbench -json` emits (BENCH_dist.json,
// BENCH_kernels.json) and exits non-zero when a gated metric regresses past
// the committed thresholds file.
//
//	benchcheck -thresholds bench-thresholds.json BENCH_dist.json BENCH_kernels.json
//
// Only properties of the computation gate the build: final training loss
// (dist — barriered anchor and every async staleness bound) and allocation,
// loss and fusion bounds (kernels). Throughput and latency are recorded in
// the uploaded artifacts but never gated — shared CI runners make them too
// noisy to fail a build on.
//
// With -metrics FILE the gate additionally parses FILE as a Prometheus
// text exposition (a CI scrape of a live janusd /metrics) and fails unless
// every series family named in thresholds metrics.require is present —
// catching instrumentation that silently stopped registering.
//
// With -warm-metrics FILE the gate parses FILE as a scrape of a janusd that
// was rebooted against a snapshot artifact (-snapshot-dir) and bounds summed
// family values: every family in thresholds metrics.warm_min must sum to at
// least its bound (the artifact really loaded), every family in
// metrics.warm_max must sum to at most its bound (a warm boot that converts
// graphs — janus_engine_conversions_total > 0 — is a cold boot wearing a
// snapshot, and fails the build).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// thresholds mirrors bench-thresholds.json.
type thresholds struct {
	Dist struct {
		// MaxFinalLoss bounds the final training loss of the barriered
		// anchor and of every async staleness bound.
		MaxFinalLoss float64 `json:"max_final_loss"`
		// MaxChurnLossRatio bounds the fault-injected churn run's final loss
		// relative to the fault-free async anchor at the same staleness
		// bound (1.15 = within 15%). When committed, the dist report MUST
		// carry a churn section proving at least one worker kill+rejoin and
		// one shard failover actually happened — a churn run that silently
		// stopped churning must fail the gate, not pass it vacuously.
		MaxChurnLossRatio float64 `json:"max_churn_loss_ratio"`
	} `json:"dist"`
	Metrics struct {
		// Require lists metric family names that must appear in the
		// -metrics exposition scrape (histogram families match their
		// _bucket/_sum/_count series).
		Require []string `json:"require"`
		// WarmMin / WarmMax bound summed family sample values in the
		// -warm-metrics scrape of a snapshot-rebooted janusd: warm_min
		// proves the artifact loaded, warm_max proves the warm boot did no
		// cold work.
		WarmMin map[string]float64 `json:"warm_min"`
		WarmMax map[string]float64 `json:"warm_max"`
	} `json:"metrics"`
	Kernels struct {
		// MaxAllocsPerOp bounds steady-state allocations per graph op in the
		// plan-driven elementwise replay (~0 when buffer reuse works; a
		// regression here means the executor went back to heap-allocating).
		MaxAllocsPerOp float64 `json:"max_allocs_per_op"`
		// MaxFinalLoss bounds the LeNet train-step replay's final loss with
		// the memory plan ON — pooled execution must still train correctly.
		MaxFinalLoss float64 `json:"max_final_loss"`
		// MinNodeReduction bounds from below the fraction of graph ops
		// elementwise fusion removes from the dispatch-bound elementwise
		// replay (1 - nodes_fused/nodes_unfused), with bit-identical replay
		// outputs; the LeNet train-step final loss must additionally be
		// bit-identical between pipeline-on and pipeline-off. Gating these
		// catches fusion silently ceasing to fire or a pass changing
		// numerics.
		MinNodeReduction float64 `json:"min_node_reduction"`
	} `json:"kernels"`
}

// report is the union of the dist and kernels shapes janusbench writes; Mode
// discriminates.
type report struct {
	Mode      string `json:"mode"`
	Model     string `json:"model"`
	Barriered *struct {
		FinalLoss float64 `json:"final_loss"`
	} `json:"barriered"`
	Async []struct {
		Staleness int     `json:"staleness"`
		FinalLoss float64 `json:"final_loss"`
	} `json:"async"`
	Scaling []struct {
		Workers   int     `json:"workers"`
		FinalLoss float64 `json:"final_loss"`
	} `json:"scaling"`
	Churn *struct {
		FinalLoss       float64 `json:"final_loss"`
		AnchorFinalLoss float64 `json:"anchor_final_loss"`
		WorkerKills     int     `json:"worker_kills"`
		WorkerRejoins   int     `json:"worker_rejoins"`
		Failovers       int     `json:"shard_failovers"`
		LeaseExpiries   int64   `json:"lease_expiries"`
	} `json:"churn"`
	TrainStep *struct {
		FinalLossOn float64 `json:"final_loss_on"`
	} `json:"train_step"`
	Elementwise *struct {
		AllocsPerGraphopOn float64 `json:"allocs_per_graphop_on"`
	} `json:"elementwise_chain"`
	Passes *struct {
		LossBitIdentical    bool    `json:"loss_bit_identical"`
		FusionNodeReduction float64 `json:"fusion_node_reduction"`
		FusionBitIdentical  bool    `json:"fusion_bit_identical"`
	} `json:"passes"`
}

func main() {
	thresholdsPath := flag.String("thresholds", "bench-thresholds.json", "committed thresholds file")
	metricsPath := flag.String("metrics", "", "Prometheus text scrape to check for required series families")
	warmMetricsPath := flag.String("warm-metrics", "", "Prometheus text scrape of a snapshot-rebooted janusd to bound against metrics.warm_min/warm_max")
	flag.Parse()
	if flag.NArg() == 0 && *metricsPath == "" && *warmMetricsPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark reports given")
		os.Exit(2)
	}
	var th thresholds
	if err := readJSON(*thresholdsPath, &th); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
		os.Exit(2)
	}
	failures := 0
	if *metricsPath != "" {
		failures += checkMetrics(*metricsPath, th)
	}
	if *warmMetricsPath != "" {
		failures += checkWarmMetrics(*warmMetricsPath, th)
	}
	for _, path := range flag.Args() {
		var r report
		if err := readJSON(path, &r); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(2)
		}
		switch r.Mode {
		case "dist":
			failures += checkDist(path, r, th)
		case "kernels":
			failures += checkKernels(path, r, th)
		default:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: unknown mode %q\n", path, r.Mode)
			os.Exit(2)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %d threshold violation(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchcheck: all thresholds passed")
}

func checkDist(path string, r report, th thresholds) int {
	max := th.Dist.MaxFinalLoss
	if max <= 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: no dist.max_final_loss threshold committed\n", path)
		return 1
	}
	bad := 0
	check := func(what string, loss float64) {
		if loss > max {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: %s final loss %.4f exceeds threshold %.4f\n",
				path, what, loss, max)
			bad++
		} else {
			fmt.Printf("benchcheck: %s: %s final loss %.4f <= %.4f ok\n", path, what, loss, max)
		}
	}
	if r.Barriered != nil {
		check("barriered", r.Barriered.FinalLoss)
	}
	for _, a := range r.Async {
		check(fmt.Sprintf("async staleness %d", a.Staleness), a.FinalLoss)
	}
	for _, p := range r.Scaling {
		check(fmt.Sprintf("%d-worker", p.Workers), p.FinalLoss)
	}
	if r.Churn != nil {
		check("churn", r.Churn.FinalLoss)
	}
	if r.Barriered == nil && len(r.Async) == 0 && len(r.Scaling) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: dist report holds no losses to gate\n", path)
		return 1
	}
	bad += checkChurn(path, r, th)
	return bad
}

// checkChurn gates convergence under injected churn: the run must have
// actually churned (>=1 worker kill+rejoin, >=1 shard failover) and its
// final loss must land within max_churn_loss_ratio of the fault-free async
// anchor. (The absolute max_final_loss bound is applied to the churn loss
// in checkDist alongside the other points.)
func checkChurn(path string, r report, th thresholds) int {
	ratio := th.Dist.MaxChurnLossRatio
	if ratio <= 0 {
		return 0
	}
	c := r.Churn
	switch {
	case c == nil:
		fmt.Fprintf(os.Stderr, "benchcheck: %s: thresholds commit dist.max_churn_loss_ratio but report has no churn section (run janusbench -dist -churn)\n", path)
		return 1
	case c.WorkerKills < 1 || c.WorkerRejoins < 1:
		fmt.Fprintf(os.Stderr, "benchcheck: %s: churn run killed/rejoined %d/%d workers, want >=1/1 — the run did not churn\n",
			path, c.WorkerKills, c.WorkerRejoins)
		return 1
	case c.Failovers < 1:
		fmt.Fprintf(os.Stderr, "benchcheck: %s: churn run completed %d shard failovers, want >=1 — the run did not churn\n",
			path, c.Failovers)
		return 1
	case c.AnchorFinalLoss <= 0:
		fmt.Fprintf(os.Stderr, "benchcheck: %s: churn section lacks a fault-free anchor loss\n", path)
		return 1
	case c.FinalLoss > ratio*c.AnchorFinalLoss:
		fmt.Fprintf(os.Stderr, "benchcheck: %s: churn final loss %.4f exceeds %.2fx of fault-free anchor %.4f\n",
			path, c.FinalLoss, ratio, c.AnchorFinalLoss)
		return 1
	}
	fmt.Printf("benchcheck: %s: churn final loss %.4f within %.2fx of anchor %.4f (kills %d, failovers %d, lease expiries %d) ok\n",
		path, c.FinalLoss, ratio, c.AnchorFinalLoss, c.WorkerKills, c.Failovers, c.LeaseExpiries)
	return 0
}

func checkKernels(path string, r report, th thresholds) int {
	bad := 0
	if maxA := th.Kernels.MaxAllocsPerOp; maxA > 0 {
		if r.Elementwise == nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: kernels report lacks elementwise_chain\n", path)
			bad++
		} else if got := r.Elementwise.AllocsPerGraphopOn; got > maxA {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: plan-on allocs/op %.3f exceeds threshold %.3f\n",
				path, got, maxA)
			bad++
		} else {
			fmt.Printf("benchcheck: %s: plan-on allocs/op %.3f <= %.3f ok\n", path, got, maxA)
		}
	}
	if maxL := th.Kernels.MaxFinalLoss; maxL > 0 {
		if r.TrainStep == nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: kernels report lacks train_step\n", path)
			bad++
		} else if got := r.TrainStep.FinalLossOn; got > maxL || got <= 0 {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: plan-on final loss %.4f outside (0, %.4f]\n",
				path, got, maxL)
			bad++
		} else {
			fmt.Printf("benchcheck: %s: plan-on final loss %.4f <= %.4f ok\n", path, got, maxL)
		}
	}
	if minR := th.Kernels.MinNodeReduction; minR > 0 {
		switch {
		case r.Passes == nil:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: kernels report lacks passes A/B\n", path)
			bad++
		case r.Passes.FusionNodeReduction < minR:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: fusion node reduction %.3f below threshold %.3f\n",
				path, r.Passes.FusionNodeReduction, minR)
			bad++
		case !r.Passes.FusionBitIdentical:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: fused elementwise replay outputs not bit-identical\n", path)
			bad++
		case !r.Passes.LossBitIdentical:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: pipeline-on LeNet final loss not bit-identical to pipeline-off\n", path)
			bad++
		default:
			fmt.Printf("benchcheck: %s: fusion node reduction %.3f >= %.3f, replay and loss bit-identical ok\n",
				path, r.Passes.FusionNodeReduction, minR)
		}
	}
	return bad
}

// parseExposition reads a Prometheus text exposition and returns per-family
// summed sample values. Histogram series fold into their family through the
// _bucket/_sum/_count suffixes; labeled counter series sum across labels.
func parseExposition(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sums := make(map[string]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A sample line is `name{labels} value` or `name value`.
		end := strings.IndexAny(line, "{ ")
		if end < 0 {
			continue
		}
		name := line[:end]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sums[name] += v
	}
	return sums, sc.Err()
}

// checkMetrics verifies every required metric family has at least one sample
// line in the exposition. Histogram families are matched through their
// _bucket/_sum/_count series.
func checkMetrics(path string, th thresholds) int {
	if len(th.Metrics.Require) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: -metrics given but thresholds list no metrics.require\n", path)
		return 1
	}
	families, err := parseExposition(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		return 1
	}
	bad := 0
	for _, want := range th.Metrics.Require {
		if _, ok := families[want]; ok {
			fmt.Printf("benchcheck: %s: series family %s present ok\n", path, want)
		} else {
			fmt.Fprintf(os.Stderr, "benchcheck: %s: required series family %s missing from exposition\n", path, want)
			bad++
		}
	}
	return bad
}

// checkWarmMetrics bounds summed family values in the warm-reboot scrape:
// warm_min families must reach their bound (the snapshot artifact really
// loaded), warm_max families must stay at or under theirs (the warm boot
// paid no cold work — zero graph conversions above all).
func checkWarmMetrics(path string, th thresholds) int {
	if len(th.Metrics.WarmMin) == 0 && len(th.Metrics.WarmMax) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: -warm-metrics given but thresholds list no metrics.warm_min/warm_max\n", path)
		return 1
	}
	sums, err := parseExposition(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", path, err)
		return 1
	}
	bad := 0
	sortedKeys := func(m map[string]float64) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	for _, name := range sortedKeys(th.Metrics.WarmMin) {
		min := th.Metrics.WarmMin[name]
		got, ok := sums[name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: warm_min family %s missing from exposition\n", path, name)
			bad++
		case got < min:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: warm boot %s = %g below %g — the snapshot artifact did not load\n",
				path, name, got, min)
			bad++
		default:
			fmt.Printf("benchcheck: %s: warm boot %s = %g >= %g ok\n", path, name, got, min)
		}
	}
	for _, name := range sortedKeys(th.Metrics.WarmMax) {
		max := th.Metrics.WarmMax[name]
		got, ok := sums[name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: warm_max family %s missing from exposition\n", path, name)
			bad++
		case got > max:
			fmt.Fprintf(os.Stderr, "benchcheck: %s: warm boot %s = %g exceeds %g — a warm boot did cold work\n",
				path, name, got, max)
			bad++
		default:
			fmt.Printf("benchcheck: %s: warm boot %s = %g <= %g ok\n", path, name, got, max)
		}
	}
	return bad
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
