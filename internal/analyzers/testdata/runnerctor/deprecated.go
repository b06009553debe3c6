package runnerctor

import (
	"compass/internal/check"
	"compass/internal/litmus"
	"compass/internal/machine"
)

func callsDeprecatedExplain(build func() check.Checked) machine.Status {
	st, _, _ := check.Explain(build, 1, 0.5, 100) // want `call to deprecated check.Explain`
	return st
}

func callsConsolidatedExplain(build func() check.Checked) machine.Status {
	st, _, _ := check.ExplainOpt(build, 1, check.Options{}) // ok: consolidated entry point
	return st
}

func callsConsolidatedRun(build func() check.Checked) *check.Report {
	return check.Run("x", build, check.Options{Mode: check.ModeExhaustive}) // ok: consolidated entry point
}

func callsConsolidatedLitmusRun(t litmus.Test) *litmus.Result {
	return litmus.Run(t, 100, litmus.WithWorkers(2)) // ok: consolidated entry point
}

func callsDeprecatedRunRandom(build func() machine.Program) int {
	return machine.RunRandom(build, 1, 0, 0, nil) // want `call to deprecated machine.RunRandom`
}
