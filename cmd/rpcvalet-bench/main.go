// Command rpcvalet-bench regenerates the paper's tables and figures from the
// reproduction's models and prints the measured data alongside pass/fail
// checks of the paper's headline claims.
//
// Usage (-h lists every flag):
//
//	rpcvalet-bench [-fig 7a] [-quick] [-format text|csv|json] [-seed N]
//	               [-workers N] [-shards N]
//
// Without -fig it regenerates every registered figure in order, and it exits
// 3 when a claim misses. EXPERIMENTS.md is produced from this command's
// output.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rpcvalet/internal/cli"
	"rpcvalet/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.New("rpcvalet-bench", stderr)
	ids := cli.List(fs, "fig", "", "figures to regenerate, comma-separated (e.g. 2a, 7c, table1); empty = all", func(id string) (string, error) {
		if _, ok := core.Figures[id]; !ok {
			return "", fmt.Errorf("unknown figure %q (known: %s)", id, strings.Join(core.FigureIDs, ", "))
		}
		return id, nil
	})
	quick := fs.Bool("quick", false, "use small sample counts (noisier, much faster)")
	format := fs.Format("text", "csv", "json")
	seed := fs.Uint64("seed", 42, "experiment seed")
	points := fs.Count("points", 0, 0, "points per curve (0 = scale default)")
	workers := fs.Count("workers", 0, 0, "concurrent simulations per sweep (0 = NumCPU)")
	shards := fs.Count("shards", 0, 0, "parallel engine shards per cluster simulation (0/1 = serial engine; cluster figures only)")
	if err := fs.Parse(args); err != nil {
		return fs.Bad(err)
	}
	if *ids == nil {
		*ids = core.FigureIDs
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
	for _, id := range *ids {
		start := time.Now()
		f, err := core.Figures[id](opts)
		if err != nil {
			return fs.Fail(fmt.Errorf("figure %s: %w", id, err))
		}
		fmt.Fprintf(stdout, "== %s — %s (%.1fs)\n\n", f.ID, f.Title, time.Since(start).Seconds())
		for _, tbl := range f.Tables {
			if err := tbl.Format(stdout, *format); err != nil {
				return fs.Fail(err)
			}
			fmt.Fprintln(stdout)
		}
		for _, c := range f.Claims {
			fmt.Fprintln(stdout, c)
			if !c.Ok {
				exit = 3
			}
		}
		if len(f.Claims) > 0 {
			fmt.Fprintln(stdout)
		}
	}
	return exit
}
