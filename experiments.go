package rrfd

import (
	"repro/internal/exp"
)

var (
	// Experiments returns every paper experiment (E01–E15, see DESIGN.md §5
	// and EXPERIMENTS.md); each Run regenerates its table, in quick or full
	// mode.
	Experiments = exp.All

	// SetExperimentWorkers sets how many workers the experiments' seed
	// sweeps fan out over: n > 0 is used as given (1 forces sequential
	// sweeps), 0 means one worker per logical CPU. Tables are byte-identical
	// for any worker count — only wall-clock time changes.
	SetExperimentWorkers = exp.SetWorkers
)
