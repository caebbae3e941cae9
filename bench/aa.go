package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChild measures one workload in a fresh process of this binary, as the
// driver does, and returns its result line. A fresh process keeps one
// workload's heap and goroutines out of the next one's numbers.
func runChild(o options) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	args := []string{
		"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-ops", strconv.Itoa(o.ops),
	}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s: %w", o.workload, err)
	}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = sc.Text()
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: result line %q: %w", o.workload, last, err)
	}
	return res, nil
}

// runAll runs every workload, one process each, and prints one table and one
// result line per workload.
func runAll(o options) error {
	failed := false
	for _, name := range workloadNames {
		o.workload = name
		res, err := runChild(o)
		if err != nil {
			return err
		}
		fmt.Printf("%s  correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		defs := endToEnd
		if o.trace {
			defs = perLayer
		}
		for _, d := range defs {
			fmt.Printf("  %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
		}
		failed = failed || !res.Correct
	}
	fmt.Println(`"claim": null`)
	if failed {
		return fmt.Errorf("a workload reported incorrect output")
	}
	return nil
}

// runAA is the A/A calibration: two sets of n runs of the same build,
// interleaved (A B A B ...) so drift on the machine lands on both, each run
// on its own seed as the driver's runs are. For every workload and end-to-end
// metric it prints both medians, how far the B median is worse than A's, and
// the interquartile spread of all 2n runs, against the metric's bound.
func runAA(o options, n int) error {
	fmt.Printf("A/A calibration: %d+%d runs per workload, %g s each\n\n", n, n, o.seconds)
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread of all runs | bound | ok |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|\n")
	violations := 0
	for _, name := range workloadNames {
		o.workload = name
		sets := [2]map[string][]float64{{}, {}}
		for r := 0; r < 2*n; r++ {
			o.seed = uint64(r + 1)
			res, err := runChild(o)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect output", name, o.seed)
			}
			fmt.Fprintf(os.Stderr, "%s %c seed %d:", name, 'A'+rune(r%2), o.seed)
			for _, d := range endToEnd {
				sets[r%2][d.name] = append(sets[r%2][d.name], res.Metrics[d.name].Value)
				fmt.Fprintf(os.Stderr, " %s=%.6g", d.name, res.Metrics[d.name].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			all := spread(append(append([]float64(nil), a...), b...))
			// setup_s is gated on its medians only, as the driver gates it:
			// one boot is tens of milliseconds.
			mark := "yes"
			if worse > d.bound || (d.name != "setup_s" && all > d.bound) {
				mark = "NO"
				violations++
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.2f%% | %.0f%% | %s |\n",
				name, d.name, ma, mb, 100*worse, 100*all, 100*d.bound, mark)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d pairings outside their bound", violations)
	}
	return nil
}
