// Command svcbench is the end-to-end benchmark of the energysched
// service stack. It stands up the real servers (and, for the cluster
// workload, the router) in-process on loopback listeners, drives them
// from a seeded generator, checks every sampled response against a
// direct recomputation, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats the workload with benchmark-side spans around each
// layer's handler and replays the requests through each layer's public
// functions, and the metrics are the per-layer ones.
//
// Usage (from the repository root):
//
//	bash svcbench/run.sh --workload hot-cluster --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"energysched/internal/rng"
)

// processStart anchors the first set-up's duration at process start.
var processStart = time.Now()

// setupRepeats is how many times a run stands its workload up from
// scratch; set-up time is reported as the median, and the last set-up
// is the one measured.
const setupRepeats = 5

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "svcbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "hot-cluster | cold-single | campaign-jobs")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends a byte-identical request stream")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("need -workload hot-cluster|cold-single|campaign-jobs, -seconds > 0, -trace 0|1")
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		logf("%v", err)
		return 1
	}
	rc := runConfig{
		seed:      mixSeed(*seed),
		seconds:   *seconds,
		conns:     runtime.NumCPU(),
		stateRoot: filepath.Join(wd, ".bench_build", "state"),
	}
	if runtime.GOMAXPROCS(0) > rc.conns {
		runtime.GOMAXPROCS(rc.conns)
	}
	rep := &report{out: stdout}
	rep.textf("workload %s seed %d (mixed %d) seconds %g trace %d gomaxprocs %d conns %d",
		w.name, *seed, rc.seed, rc.seconds, *trace, runtime.GOMAXPROCS(0), rc.conns)
	ctx := context.Background()
	mode := endToEnd
	if *trace == 1 {
		mode = perLayer
	}
	if !mode(ctx, w, rc, rep) {
		return 1
	}
	if err := rep.finish(); err != nil {
		logf("%v", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// mixSeed spreads the command-line seed over 64 bits. The repository's
// streams (rng.At, loadgen.Generate, loadgen.PoolSeed) start from
// seed·φ, so seeds n and n+1 would give the same draws shifted by one;
// mixing first makes every seed's inputs unrelated to its neighbours'.
func mixSeed(seed int64) int64 {
	s := rng.New(seed)
	return int64(s.Uint64())
}

// standUp runs the workload's set-up setupRepeats times from scratch
// and keeps the last; it returns the set-up durations in seconds.
func standUp(ctx context.Context, w workload, rc runConfig, spans *spanLog, repeats int) (*env, []float64, error) {
	var times []float64
	var e *env
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		var err error
		if e, err = w.setup(ctx, rc, spans); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	spans.reset()
	return e, times, nil
}

// endToEnd is the -trace 0 run: the stack with its shipped defaults,
// no benchmark-side spans, and the end-to-end metrics.
func endToEnd(ctx context.Context, w workload, rc runConfig, rep *report) bool {
	e, setups, err := standUp(ctx, w, rc, nil, setupRepeats)
	if err != nil {
		logf("%v", err)
		return false
	}
	defer e.close()
	ph, err := measure(ctx, w, rc, e, false)
	if err != nil {
		logf("%v", err)
		return false
	}
	ph.verify(rc, rep)
	ph.endToEndMetrics(rep, median(setups), len(setups))
	return true
}

// perLayer is the -trace 1 run: an untraced phase as the overhead
// baseline, then the same seed again with spans on, then the replay of
// the traced phase's requests through each layer's functions.
func perLayer(ctx context.Context, w workload, rc runConfig, rep *report) bool {
	base, _, err := standUp(ctx, w, rc, nil, 1)
	if err != nil {
		logf("%v", err)
		return false
	}
	basePh, err := measure(ctx, w, rc, base, false)
	base.close()
	if err != nil {
		logf("%v", err)
		return false
	}
	spans := &spanLog{}
	e, _, err := standUp(ctx, w, rc, spans, 1)
	if err != nil {
		logf("%v", err)
		return false
	}
	defer e.close()
	ph, err := measure(ctx, w, rc, e, true)
	if err != nil {
		logf("%v", err)
		return false
	}
	ph.spans = spans
	ph.verify(rc, rep)
	lp, err := ph.replayLayers(rc, e)
	if err != nil {
		logf("layer replay: %v", err)
		return false
	}
	ph.perLayerMetrics(rep, lp, basePh)
	return true
}

// report accumulates metrics and prints them: one human-readable line
// per metric as it is added, then the JSON result line.
type report struct {
	out       io.Writer
	metrics   map[string]jsonMetric
	correct   bool
	attempted int
	failed    int
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) textf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// metric prints a metric line. When inJSON is set it also goes into
// the result object, which carries only the metrics BENCHMARK.json
// declares for the run's mode.
func (r *report) metric(name string, v float64, unit string, n int, inJSON bool) {
	count := ""
	if n > 0 {
		count = fmt.Sprintf("  (n=%d)", n)
	}
	r.textf("  %-34s %14.6g %s%s", name, v, unit, count)
	if !inJSON {
		return
	}
	if r.metrics == nil {
		r.metrics = map[string]jsonMetric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no infinities; a metric that failed outright reads as
		// the largest finite number, which misses every bound.
		v = math.MaxFloat64
	}
	r.metrics[name] = jsonMetric{Value: v, Unit: unit}
}

func (r *report) finish() error {
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(r.out, string(b))
	return err
}
