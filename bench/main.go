// Command bench is the repository's one layered benchmark: four traffic
// mixes driven through the whole deployed path (client → LB → cache →
// store, and write → replicate → flush → push → cache apply), reporting
// what a user sees end to end and what each layer contributes to it.
// See README.md in this directory.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as the last line (JSON)
//	bench [-seed N]                                       every workload, both runs, each in a child process
//	bench -repeat N                                       N seeds of the end-to-end runs, spread against bounds
//	bench -smoke                                          the whole suite at toy size, seconds not minutes
//	bench -layers                                         the layer micro-timings alone, 1 s per loop
//	bench -list                                           the workload and metric names
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 25

// smokeSeconds and smokeKeys size the -smoke suite: every code path of
// the full runs at a size a test can afford.
const (
	smokeSeconds = 1.5
	smokeKeys    = 2000
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	smoke    bool
	out      string
}

func main() {
	var (
		o      options
		list   = flag.Bool("list", false, "print workload and metric names and exit")
		layers = flag.Bool("layers", false, "run only the layer micro-timings, 1 s per loop")
		repeat = flag.Int("repeat", 0, "run the end-to-end suite over this many seeds and report each metric's spread against its bound")
	)
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result as the last line; default: every workload, each in a child process")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (flows into the internal/workload trace specs)")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "toy sizes: 2000 keys, 1.5 s per run")
	flag.StringVar(&o.out, "out", "", "with -trace 1, write every span of the traced pass to this file (JSON)")
	flag.Parse()
	if o.smoke {
		o.seconds = smokeSeconds
	}

	var err error
	switch {
	case *list:
		printNames()
	case *layers:
		err = runLayers()
	case o.workload != "":
		err = runOne(o)
	case *repeat > 0:
		err = runRepeat(o, *repeat)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printNames() {
	for _, w := range workloads {
		fmt.Println("workload", w.name)
	}
	for _, m := range endToEnd {
		fmt.Println("end_to_end", m.name, m.unit, m.better, m.bound)
	}
	for _, m := range perLayer {
		fmt.Println("per_layer", m.name, m.unit, m.better)
	}
}

// runOne is the contract with the driver: one workload, one run, the
// result as the last line of standard output.
func runOne(o options) error {
	res, err := runWorkload(o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runWorkload(o options) (*result, error) {
	spec := findWorkload(o.workload)
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q (try -list)", o.workload)
	}
	w := *spec
	if o.smoke {
		w.keys = smokeKeys
		if w.capacity > 0 {
			w.capacity = smokeKeys / numCaches / 10
		}
	}
	switch o.trace {
	case 0:
		return runEndToEnd(&w, o.seed, splitSeconds(o.seconds), os.Stderr)
	case 1:
		return runPerLayer(&w, o.seed, o.seconds, o.out, os.Stderr)
	}
	return nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
}

// child re-executes this binary for one run, so peak RSS, GC state and
// set-up time do not leak from one workload into the next, and returns
// the parsed result line.
func child(o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.out != "" && o.trace == 1 {
		args = append(args, "-out", o.out+"."+o.workload+".json")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s --trace %d: %w", o.workload, o.trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s --trace %d: result line: %w", o.workload, o.trace, err)
	}
	return &res, nil
}

// runSuite runs every workload, untraced then traced, and prints every
// metric by name with its unit.
func runSuite(o options) error {
	start := time.Now()
	attempted, failed := 0, 0
	for _, w := range workloads {
		for _, tab := range []struct {
			trace   int
			metrics []metricSpec
		}{{0, endToEnd}, {1, perLayer}} {
			o.workload, o.trace = w.name, tab.trace
			res, err := child(o)
			if err != nil {
				return err
			}
			attempted += res.Attempted
			failed += res.Failed
			for _, m := range tab.metrics {
				v, ok := res.Metrics[m.name]
				if !ok {
					return fmt.Errorf("%s --trace %d did not report %s", w.name, tab.trace, m.name)
				}
				fmt.Printf("%-13s %-34s %14.6g %s\n", w.name, m.name, v.Value, v.Unit)
			}
		}
	}
	fmt.Printf("suite: %d operations attempted, %d failed, %.0f s\n", attempted, failed, time.Since(start).Seconds())
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

// runLayers prints the micro-timings alone, each loop a full second. The
// server-side ones need a live topology; read_hot's is booted for them.
func runLayers() error {
	w := findWorkload("read_hot")
	tp, _, _, err := setUp(w, keyNames(w.keys))
	if err != nil {
		return err
	}
	defer tp.close()
	res := &result{Metrics: map[string]value{}}
	if err := layerMetrics(res, time.Second, w.valSize); err != nil {
		return err
	}
	if err := serverMetrics(res, tp, time.Second); err != nil {
		return err
	}
	for _, m := range perLayer {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Printf("%-34s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	return nil
}
