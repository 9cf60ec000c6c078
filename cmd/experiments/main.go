// Command experiments regenerates every claim table of the paper
// (C1–C15; see "Claim drivers" in the README). The tables go to
// stdout and are byte-identical across runs; each driver's wall time
// and timing measurements go to stderr.
//
// Usage:
//
//	experiments                 # run everything
//	experiments E04 E12         # run selected experiments
//	experiments -list           # list available experiments
//	experiments -timeout 2m     # bound the whole run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"energysched/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	timeout := flag.Duration("timeout", 0, "stop starting new experiments after this wall time (a running experiment finishes; 0 = no limit)")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Println(e.ID)
		}
		return
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: stopping before %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		start := time.Now()
		rep := e.Run()
		elapsed := time.Since(start).Round(time.Millisecond)
		fmt.Println(rep.Table)
		timing := ""
		if rep.Timing != "" {
			timing = "; " + rep.Timing
		}
		fmt.Fprintf(os.Stderr, "(%s completed in %v%s)\n", e.ID, elapsed, timing)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %v; use -list\n", flag.Args())
		os.Exit(1)
	}
}
