// Command ginflow-bench regenerates the tables and figures of the
// paper's evaluation (§V) in model seconds, on the discrete-event
// virtual clock:
//
//	ginflow-bench -fig 12a    coordination timespan, simple diamond (Fig. 12a)
//	ginflow-bench -fig 12b    coordination timespan, fully-connected (Fig. 12b)
//	ginflow-bench -fig 13     adaptiveness ratios (Fig. 13)
//	ginflow-bench -fig 14     executor × middleware comparison (Fig. 14)
//	ginflow-bench -fig 15     Montage shape and duration CDF (Fig. 15)
//	ginflow-bench -fig 16     resilience under failure injection (Fig. 16)
//	ginflow-bench -fig all    everything above, in order
//
// -quick shrinks the sweeps for a fast sanity pass. Same-seed runs
// print identical tables. With -fig all, -json writes every figure's
// points in the form of the committed goldens:
//
//	ginflow-bench -json internal/bench/testdata/figures.json
//	ginflow-bench -quick -runs 1 -json internal/bench/testdata/figures_quick.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ginflow/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ginflow-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 12a | 12b | 13 | 14 | 15 | 16 | all")
		quick    = flag.Bool("quick", false, "reduced sweeps")
		runs     = flag.Int("runs", 3, "repetitions for averaged experiments (paper: up to 10)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		jsonPath = flag.String("json", "", "with -fig all, write every figure's points as JSON to this path")
	)
	flag.Parse()
	opts := bench.Options{Out: os.Stdout, Quick: *quick, Runs: *runs, Seed: *seed}

	if *fig == "all" {
		figs, err := bench.All(opts)
		if err != nil || *jsonPath == "" {
			return err
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := figs.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if *jsonPath != "" {
		return errors.New("-json writes every figure: use it with -fig all")
	}
	var err error
	switch *fig {
	case "12a":
		_, err = bench.Fig12(opts, false)
	case "12b":
		_, err = bench.Fig12(opts, true)
	case "13":
		_, err = bench.Fig13(opts)
	case "14":
		_, err = bench.Fig14(opts)
	case "15":
		err = bench.Fig15(opts)
	case "16":
		_, _, err = bench.Fig16(opts)
	default:
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return err
}
