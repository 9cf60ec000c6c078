// Command benchgate is the kernel-benchmark regression gate: it
// parses `go test -bench -benchmem` output (the same format benchstat
// consumes), condenses repeated -count runs to their per-benchmark
// minima, and either refreshes the committed baseline
// (BENCH_kernels.json) or compares a fresh run against it, failing on
// time/op or allocs/op regressions beyond the tolerance.
//
// Usage:
//
//	go test -run='^$' -bench='...' -benchmem -count=5 . > bench.out
//	benchgate -in bench.out -baseline BENCH_kernels.json            # check
//	benchgate -update -in bench.out -baseline BENCH_kernels.json    # refresh
//
// -update merges: the benchmarks in the run replace their baseline
// entries and every other entry is kept, so a run of one benchmark
// refreshes that benchmark only. Check mode fails on a baseline entry
// the run lacks, so a stale entry cannot hide.
//
// The baseline is vendored alongside the code so every PR carries the
// performance contract of the kernels it touches; `make bench`
// refreshes it, `make bench-check` (and the CI bench job) enforces
// it. Comparison uses per-benchmark minima across -count repetitions,
// which is far more stable than means on shared runners.
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

// metrics is one benchmark's condensed measurement.
type metrics struct {
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	// Host names the machine NsPerOp was taken on when that is not the
	// machine of record; refreshing the entry with -update clears it.
	Host string `json:"host,omitempty"`
}

// baseline is the BENCH_kernels.json schema.
type baseline struct {
	Note       string             `json:"note"`
	Benchmarks map[string]metrics `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	basePath := flag.String("baseline", "BENCH_kernels.json", "baseline JSON path")
	update := flag.Bool("update", false, "merge the parsed run into the baseline instead of checking")
	timeTol := flag.Float64("time-tol", 0.10, "allowed relative time/op regression")
	allocTol := flag.Float64("alloc-tol", 0.10, "allowed relative allocs/op regression")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op slack added to the relative bound (guards tiny counts)")
	flag.Parse()

	f := os.Stdin
	if *in != "" {
		var err error
		f, err = os.Open(*in)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
	}
	run, err := parseBench(f)
	if err != nil {
		fatal("parsing benchmark output: %v", err)
	}
	if len(run) == 0 {
		fatal("no benchmark results found in input")
	}

	if *update {
		merge(*basePath, run)
		return
	}

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fatal("reading baseline: %v (run `make bench` to create it)", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parsing baseline: %v", err)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := run[name]
		if !ok {
			fmt.Printf("FAIL %s: missing from this run\n", name)
			failed = true
			continue
		}
		status := "ok  "
		timeLimit := want.NsPerOp * (1 + *timeTol)
		allocLimit := want.AllocsPerOp*(1+*allocTol) + *allocSlack
		var reasons []string
		if got.NsPerOp > timeLimit {
			reasons = append(reasons, fmt.Sprintf("time/op %.0fns > %.0fns (+%.1f%%)",
				got.NsPerOp, timeLimit, 100*(got.NsPerOp/want.NsPerOp-1)))
		}
		if got.AllocsPerOp > allocLimit {
			reasons = append(reasons, fmt.Sprintf("allocs/op %.0f > %.0f (baseline %.0f)",
				got.AllocsPerOp, allocLimit, want.AllocsPerOp))
		}
		if len(reasons) > 0 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %s: %.0f ns/op (base %.0f), %.0f allocs/op (base %.0f)%s\n",
			status, name, got.NsPerOp, want.NsPerOp, got.AllocsPerOp, want.AllocsPerOp,
			suffix(reasons))
	}
	if failed {
		fmt.Println("benchgate: kernel benchmark regression detected")
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within tolerance (time +%.0f%%, allocs +%.0f%% +%.0f)\n",
		len(names), *timeTol*100, *allocTol*100, *allocSlack)
}

// merge writes the run into the baseline at path: each benchmark of
// the run replaces its entry, host note included, and every other
// entry stays as it was, so refreshing a few benchmarks leaves the
// rest of the machine of record's numbers alone. A baseline that does
// not exist yet starts empty.
func merge(path string, run map[string]metrics) {
	b := baseline{
		Note:       "Kernel benchmark baseline enforced by cmd/benchgate (make bench-check, CI job `bench`). Refresh with `make bench` after intentional kernel changes. Values are per-benchmark minima across -count repetitions.",
		Benchmarks: map[string]metrics{},
	}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &b); err != nil {
			fatal("parsing baseline: %v", err)
		}
	case !os.IsNotExist(err):
		fatal("reading baseline: %v", err)
	}
	if b.Benchmarks == nil {
		b.Benchmarks = map[string]metrics{}
	}
	for name, m := range run {
		b.Benchmarks[name] = m
	}
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("benchgate: wrote %d benchmarks (%d from this run) to %s\n", len(b.Benchmarks), len(run), path)
}

func suffix(reasons []string) string {
	if len(reasons) == 0 {
		return ""
	}
	return " — " + strings.Join(reasons, "; ")
}

// parseBench reads `go test -bench` lines, keeping the minimum of
// each metric across repeated runs of the same benchmark. The GOMAXPROCS
// suffix (-8) is stripped so baselines transfer across machines.
func parseBench(f *os.File) (map[string]metrics, error) {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name  N  ns/op-value "ns/op" [B/op-value "B/op"] [allocs-value "allocs/op"]
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := metrics{NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%q: bad value %q", name, fields[i])
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp = v
			case "B/op":
				m.BytesPerOp = v
			case "allocs/op":
				m.AllocsPerOp = v
			}
		}
		if m.NsPerOp < 0 {
			continue
		}
		if prev, ok := out[name]; ok {
			if prev.NsPerOp < m.NsPerOp {
				m.NsPerOp = prev.NsPerOp
			}
			if prev.BytesPerOp >= 0 && prev.BytesPerOp < m.BytesPerOp {
				m.BytesPerOp = prev.BytesPerOp
			}
			if prev.AllocsPerOp >= 0 && prev.AllocsPerOp < m.AllocsPerOp {
				m.AllocsPerOp = prev.AllocsPerOp
			}
		}
		out[name] = m
	}
	return out, sc.Err()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
