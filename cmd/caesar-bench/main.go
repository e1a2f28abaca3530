// Command caesar-bench regenerates the paper's evaluation artifacts: every
// figure and table of Section 6 plus the repository's ablations, at a
// selectable scale.
//
// Usage:
//
//	caesar-bench [-scale small|medium|paper] [-seed N] [-run id[,id...]] [-list] [-json]
//
// Experiment ids follow the DESIGN.md index (fig3..fig8, tbl-*, abl-*);
// -list prints them all, -run all (default) runs everything in order, and
// -json emits one JSON object per experiment for machine consumption.
// Performance is measured by the separate benchmark under bench/
// (bench/README.md), not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/caesar-sketch/caesar/internal/expt"
)

func main() {
	var (
		scaleName = flag.String("scale", "small", "experiment scale: small, medium, or paper")
		seed      = flag.Uint64("seed", 1, "workload seed")
		run       = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		jsonOut   = flag.Bool("json", false, "emit one JSON object per experiment instead of text")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q (caesar-bench takes flags only)", flag.Args()))
	}

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-10s  %s\n", e.ID, e.Title)
		}
		return
	}

	scale, err := expt.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	scale.Seed = *seed

	var selected []expt.Experiment
	if *run == "all" {
		selected = expt.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := expt.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			selected = append(selected, e)
		}
	}

	start := time.Now()
	w, err := expt.BuildWorkload(scale)
	if err != nil {
		fatal(err)
	}
	if !*jsonOut {
		fmt.Printf("workload [%s]: %s\n", scale.Name, w.Trace.Summarize())
		fmt.Printf("scaled config: L=%d (%0.2f KB SRAM), M=%d (%.2f KB cache), y=%d, k=%d (built in %v)\n\n",
			w.L, w.SRAMKB, w.M, w.CacheKB, w.Y, expt.K, time.Since(start).Round(time.Millisecond))
	}

	enc := json.NewEncoder(os.Stdout)
	for _, e := range selected {
		t0 := time.Now()
		r, err := e.Run(w)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *jsonOut {
			if err := enc.Encode(r); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Println(r)
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "caesar-bench:", err)
	os.Exit(1)
}
