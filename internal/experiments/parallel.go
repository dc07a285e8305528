package experiments

import (
	"context"
	"runtime"

	"helmsim/internal/report"
)

// Outcome is the result of executing one experiment: its rendered tables
// or the error that stopped it. RunSet returns Outcomes in the same order
// as its input regardless of which worker finished first.
type Outcome struct {
	Experiment Experiment
	Tables     []*report.Table
	Err        error
}

// RunSet executes the given experiments with up to parallelism workers.
// parallelism <= 0 means runtime.GOMAXPROCS(0). Outcomes land at the
// index of their experiment, so output order is deterministic and
// independent of scheduling. A cancelled context marks the
// not-yet-started experiments with ctx.Err().
func RunSet(ctx context.Context, exps []Experiment, parallelism int) []Outcome {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(exps) {
		parallelism = len(exps)
	}
	out := make([]Outcome, len(exps))
	jobs := make(chan int)
	done := make(chan struct{})
	for w := 0; w < parallelism; w++ {
		go func() {
			for i := range jobs {
				out[i].Experiment = exps[i]
				if err := ctx.Err(); err != nil {
					out[i].Err = err
					continue
				}
				out[i].Tables, out[i].Err = exps[i].Run()
			}
			done <- struct{}{}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	for w := 0; w < parallelism; w++ {
		<-done
	}
	return out
}
