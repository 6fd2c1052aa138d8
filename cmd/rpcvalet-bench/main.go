// Command rpcvalet-bench regenerates the paper's tables and figures from the
// reproduction's models and prints the measured data alongside pass/fail
// checks of the paper's headline claims.
//
// Usage:
//
//	rpcvalet-bench [-fig 7a] [-quick] [-format text|csv|json] [-seed N]
//	               [-workers N] [-shards N]
//
// -shards runs every cluster simulation on N parallel engine shards
// synchronized at the balancer hop (0/1 = the serial engine, byte-identical
// to the pinned figures); sweep fan-out narrows so -workers still caps total
// goroutines.
//
// Without -fig it regenerates every registered figure in order. EXPERIMENTS.md
// is produced from this command's output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rpcvalet/internal/core"
)

// usage reports a bad flag value and exits 2 before anything is simulated.
func usage(err error) {
	fmt.Fprintf(os.Stderr, "rpcvalet-bench: %v\n", err)
	os.Exit(2)
}

func main() {
	var (
		fig     = flag.String("fig", "", "figure to regenerate (e.g. 2a, 7c, table1); empty = all")
		quick   = flag.Bool("quick", false, "use small sample counts (noisier, much faster)")
		format  = flag.String("format", "text", "output format: text, csv, or json")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		points  = flag.Int("points", 0, "points per curve (0 = scale default)")
		workers = flag.Int("workers", 0, "concurrent simulations per sweep (0 = NumCPU)")
		shards  = flag.Int("shards", 0, "parallel engine shards per cluster simulation (0/1 = serial engine; cluster figures only)")
	)
	flag.Parse()

	if *format != "text" && *format != "csv" && *format != "json" {
		usage(fmt.Errorf("unknown format %q (want text, csv or json)", *format))
	}
	ids := core.FigureIDs
	if *fig != "" {
		ids = strings.Split(*fig, ",")
	}
	for _, id := range ids {
		if _, ok := core.Figures[id]; !ok {
			usage(fmt.Errorf("unknown figure %q (known: %s)", id, strings.Join(core.FigureIDs, ", ")))
		}
	}

	opts := core.DefaultOptions()
	if *quick {
		opts = core.QuickOptions()
	}
	opts.Seed = *seed
	if *points > 0 {
		opts.Points = *points
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	opts.Shards = *shards

	exit := 0
	for _, id := range ids {
		start := time.Now()
		f, err := core.Figures[id](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rpcvalet-bench: figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("== %s — %s (%.1fs)\n\n", f.ID, f.Title, time.Since(start).Seconds())
		for _, tbl := range f.Tables {
			if err := tbl.Format(os.Stdout, *format); err != nil {
				fmt.Fprintf(os.Stderr, "rpcvalet-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
		}
		for _, c := range f.Claims {
			fmt.Println(c)
			if !c.Ok {
				exit = 3
			}
		}
		if len(f.Claims) > 0 {
			fmt.Println()
		}
	}
	os.Exit(exit)
}
