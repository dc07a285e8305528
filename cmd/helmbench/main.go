// Command helmbench is the simulator's command line. With no
// subcommand it regenerates the paper's tables and figures on the
// simulated platform; sim, tune and serve run one configuration, the
// QoS autotuner and the online-serving simulator.
//
// Usage:
//
//	helmbench              # run everything (GOMAXPROCS workers, printed in id order)
//	helmbench -run fig11   # one experiment
//	helmbench -list        # list experiment ids
//	helmbench -csv         # CSV instead of aligned tables
//	helmbench sim -model OPT-175B -mem NVDRAM -policy helm -batch 1 -compress
//	helmbench tune -objective qos -tbt 6.5s
//	helmbench serve -rate 2 -cap 44 -slo 90s
//
// The exit status is 0 on success, 1 when a run fails and 2 on bad
// usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"helmsim/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A command registers its flags and returns its body, which runs once
// they have parsed.
type command func(fs *flag.FlagSet) func(stdout, stderr io.Writer) error

// subcommands are the commands named by the first argument; without
// one, helmbench runs experiments.
var subcommands = map[string]command{
	"sim":   simCommand,
	"tune":  tuneCommand,
	"serve": serveCommand,
}

// run is the whole command: it parses args, runs the selected command
// and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "helmbench", command(experimentsCommand)
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			name, cmd, args = "helmbench "+args[0], sub, args[1:]
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	body := cmd(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "%s: unexpected argument %q (subcommands: sim, tune, serve)\n", name, fs.Arg(0))
		return 2
	}
	if err := body(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	return 0
}

// experimentsCommand regenerates the paper's artifacts by experiment id.
func experimentsCommand(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	runID := fs.String("run", "", "experiment id to run (default: all)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	return func(stdout, stderr io.Writer) error {
		if *list {
			for _, e := range experiments.All() {
				fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
			}
			return nil
		}
		todo := experiments.All()
		if *runID != "" {
			e, err := experiments.ByID(*runID)
			if err != nil {
				return err
			}
			todo = []experiments.Experiment{e}
		}

		failed := 0
		for _, o := range experiments.RunSet(context.Background(), todo, 0) {
			fmt.Fprintf(stdout, "=== %s: %s ===\n", o.Experiment.ID, o.Experiment.Title)
			if o.Err != nil {
				fmt.Fprintf(stderr, "helmbench: %s: %v\n", o.Experiment.ID, o.Err)
				failed++
				continue
			}
			for _, t := range o.Tables {
				render := t.Render
				if *csv {
					render = t.RenderCSV
				}
				if err := render(stdout); err != nil {
					return fmt.Errorf("render %s: %w", o.Experiment.ID, err)
				}
				fmt.Fprintln(stdout)
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d experiments failed", failed, len(todo))
		}
		return nil
	}
}
