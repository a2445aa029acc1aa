package core

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// WithObserver attaches an observer to the execution: the engine reports an
// event at every run/round/emit/deliver/decide boundary and times each
// phase.
// With no observer attached (and no default observer installed) the hot
// path pays only a nil check per site.
func WithObserver(o obs.Observer) Option {
	return func(eo *engineOptions) { eo.observer = o }
}

// WithClock injects the clock the engine uses for phase timing when an
// observer is attached. The default is time.Now; tests inject a fake clock
// to make latency metrics deterministic.
func WithClock(now func() time.Time) Option {
	return func(eo *engineOptions) { eo.clock = now }
}

// defaultObserver holds the process-wide observer Run falls back to when no
// WithObserver option is given. It lets a harness (cmd/experiments) observe
// every engine execution without threading an option through each call
// site.
var defaultObserver atomic.Value // of observerBox

type observerBox struct{ o obs.Observer }

// SetDefaultObserver installs o as the fallback observer for every Run that
// does not pass WithObserver. Passing nil uninstalls it. Safe for
// concurrent use, but intended for harness setup, not per-run toggling.
func SetDefaultObserver(o obs.Observer) {
	defaultObserver.Store(observerBox{o: o})
}

// DefaultObserver returns the installed fallback observer, or nil.
func DefaultObserver() obs.Observer {
	if v := defaultObserver.Load(); v != nil {
		return v.(observerBox).o
	}
	return nil
}

// observerInts renders a Set as the plain-int member list observers speak.
func observerInts(s Set) []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(p PID) { out = append(out, int(p)) })
	return out
}
