// Command dayu-repro regenerates the paper's tables and figures.
//
// Usage:
//
//	dayu-repro [-quick] [-out dir] [-list] [all | <id> ...]
//
// IDs match the paper artifacts: table1 table2 table3 fig3 fig4 fig5
// fig6 fig7 fig8 fig9a fig9b fig9c fig9d fig10a fig10b fig11 fig12
// fig13a fig13b fig13c. Graph figures also write DOT/SVG/HTML/JSON
// artifacts under the output directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dayu/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale configurations")
	out := flag.String("out", "out", "artifact output directory")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	reps := flag.Int("reps", 3, "overhead repetitions: median of N tracer replays, minimum of N untraced runs")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Println(e.ID)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}

	opts := experiments.Options{Quick: *quick, Reps: *reps}
	exit := 0
	for _, id := range ids {
		run, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "dayu-repro: unknown experiment %q (use -list)\n", id)
			exit = 2
			continue
		}
		table, err := run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dayu-repro: %s failed: %v\n", id, err)
			exit = 1
			continue
		}
		fmt.Println(table.Format())
		if len(table.Artifacts) > 0 {
			dir := filepath.Join(*out, id)
			paths, err := table.WriteArtifacts(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dayu-repro: %s artifacts: %v\n", id, err)
				exit = 1
				continue
			}
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
			fmt.Println()
		}
	}
	os.Exit(exit)
}
