// Command dmbench regenerates the reproduction's experiment tables — one
// per table/figure of the canonical evaluations that -list indexes (see
// README "dmbench — the experiment harness").
//
// Usage:
//
//	dmbench               # run every experiment at full scale
//	dmbench -quick        # laptop-seconds versions of every experiment
//	dmbench -exp A1,C3    # selected experiments
//	dmbench -list         # list experiment ids and titles
//	dmbench -workers 4    # count-distribute miner scans across 4 goroutines
//	dmbench -paralleljson BENCH_parallel.json   # emit the EXP-P1 baseline
//	dmbench -incrementaljson BENCH_incremental.json   # emit the EXP-P2 baseline
//	dmbench -fpgrowthjson BENCH_fpgrowth.json   # emit the EXP-P3 baseline
//	dmbench -dist         # run the EXP-P4 distributed overhead sweep
//	dmbench -distworkers 4   # narrow the EXP-P4 worker ladder to one count
//	dmbench -distjson BENCH_dist.json   # emit the EXP-P4 baseline
//	dmbench -faultsjson BENCH_faults.json   # emit the EXP-F1 baseline
//	dmbench -servejson BENCH_serve.json   # emit the EXP-SV1 serving baseline
//	dmbench -durablejson BENCH_durable.json   # emit the EXP-D1 durability baseline
//	dmbench -distfaults seed=1,err=0.1,kill=0.02   # seeded chaos smoke run
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/dist"
	"repro/internal/experiments"
)

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dmbench:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func run(args []string) error {
	fs := cliutil.NewFlagSet("dmbench")
	var (
		expFlag      = fs.String("exp", "", "comma-separated experiment ids (default: all)")
		quickFlag    = fs.Bool("quick", false, "run reduced workloads")
		listFlag     = fs.Bool("list", false, "list experiments and exit")
		workersFlag  = cliutil.AddWorkersFlag(fs)
		parallelJSON = fs.String("paralleljson", "", "write the EXP-P1 parallel baseline as JSON to this file and exit")
		incJSON      = fs.String("incrementaljson", "", "write the EXP-P2 incremental baseline as JSON to this file and exit")
		fpJSON       = fs.String("fpgrowthjson", "", "write the EXP-P3 pattern-growth baseline as JSON to this file and exit")
		distFlags    = cliutil.AddDistFlags(fs,
			"run the EXP-P4 distributed overhead sweep (shorthand for -exp P4)",
			"narrow the EXP-P4 worker ladder to this single worker count (0 keeps 1/2/4)")
		distJSON    = fs.String("distjson", "", "write the EXP-P4 distributed baseline as JSON to this file and exit")
		faultsJSON  = fs.String("faultsjson", "", "write the EXP-F1 fault-tolerance baseline as JSON to this file and exit")
		serveJSON   = fs.String("servejson", "", "write the EXP-SV1 serving-tier baseline as JSON to this file and exit")
		durableJSON = fs.String("durablejson", "", "write the EXP-D1 durability baseline as JSON to this file and exit")
		faultSpec   = cliutil.AddFaultsFlag(fs)
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	faults, err := cliutil.ParseFaults(*faultSpec)
	if err != nil {
		return err
	}

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil
	}
	scale := experiments.Full
	if *quickFlag {
		scale = experiments.Quick
	}
	if n := *workersFlag; n != 1 {
		experiments.DefaultWorkers = cliutil.ResolveWorkers(n)
	}
	if distFlags.Workers > 0 {
		experiments.DistWorkerCounts = []int{distFlags.Workers}
	}
	// Baselines measure into memory first so a failed or interrupted sweep
	// never truncates an existing file.
	writeBaseline := func(path, what string, write func(*bytes.Buffer) error) error {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return fmt.Errorf("%s baseline failed: %w", what, err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s baseline to %s\n", what, path)
		return nil
	}
	if *faultsJSON != "" {
		return writeBaseline(*faultsJSON, "fault-tolerance", func(buf *bytes.Buffer) error {
			return experiments.WriteFaultsBaseline(buf, scale)
		})
	}
	if *serveJSON != "" {
		return writeBaseline(*serveJSON, "serving-tier", func(buf *bytes.Buffer) error {
			return experiments.WriteServeBaseline(buf, scale)
		})
	}
	if *durableJSON != "" {
		return writeBaseline(*durableJSON, "durability", func(buf *bytes.Buffer) error {
			return experiments.WriteDurableBaseline(buf, scale)
		})
	}
	if faults != nil {
		// -distfaults is the reproducible chaos smoke: mine the EXP-F1
		// fixture under the seeded schedule and byte-check the result.
		return experiments.RunFaultSmoke(os.Stdout, scale,
			dist.FaultPlan{
				Seed:           faults.Seed,
				Drop:           faults.Drop,
				Error:          faults.Err,
				Kill:           faults.Kill,
				Delay:          faults.Delay,
				DelayProb:      faults.DelayProb,
				PartitionAfter: faults.Partition,
			},
			dist.RetryPolicy{
				MaxAttempts: faults.Attempts,
				CallTimeout: faults.Timeout,
				BaseBackoff: faults.Backoff,
				MaxBackoff:  faults.MaxBackoff,
				Seed:        faults.Seed,
			})
	}
	if *distJSON != "" {
		return writeBaseline(*distJSON, "distributed", func(buf *bytes.Buffer) error {
			return experiments.WriteDistBaseline(buf, scale)
		})
	}
	if distFlags.Dist {
		if err := experiments.RunP4(os.Stdout, scale); err != nil {
			return fmt.Errorf("EXP-P4 failed: %w", err)
		}
		return nil
	}
	if *parallelJSON != "" {
		return writeBaseline(*parallelJSON, "parallel", func(buf *bytes.Buffer) error {
			return experiments.WriteParallelBaseline(buf, scale)
		})
	}
	if *incJSON != "" {
		return writeBaseline(*incJSON, "incremental", func(buf *bytes.Buffer) error {
			return experiments.WriteIncrementalBaseline(buf, scale)
		})
	}
	if *fpJSON != "" {
		return writeBaseline(*fpJSON, "pattern-growth", func(buf *bytes.Buffer) error {
			return experiments.WritePatternBaseline(buf, scale)
		})
	}
	var selected []experiments.Experiment
	if *expFlag == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return fmt.Errorf("%w for dmbench: %v", cliutil.ErrInvalidFlags, err)
			}
			selected = append(selected, e)
		}
	}
	for i, e := range selected {
		if i > 0 {
			fmt.Println()
		}
		if err := e.Run(os.Stdout, scale); err != nil {
			return fmt.Errorf("EXP-%s failed: %w", e.ID, err)
		}
	}
	return nil
}
