package msgnet_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/immediate"
	"repro/internal/msgnet"
	"repro/internal/netsub"
	"repro/internal/recovery"
	"repro/internal/reliablelink"
	"repro/internal/snapshot"
	"repro/internal/swmr"
)

// TestShapeValidatedOnce: every round runner rejects a shape outside
// eq. (3) with the same typed error, before it builds anything — f ≥ n
// used to make every round of the two virtual runners "complete" with
// an empty view, and the snapshot runner used to accept it. The wait-free
// immediate-snapshot runner has no f parameter: its shape is (n, n−1,
// rounds).
func TestShapeValidatedOnce(t *testing.T) {
	runners := map[string]func(n, f, rounds int) error{
		"msgnet": func(n, f, rounds int) error {
			_, err := msgnet.RunRounds(n, f, rounds, msgnet.Config{}, nil)
			return err
		},
		"reliablelink": func(n, f, rounds int) error {
			_, rep, err := reliablelink.RunRounds(n, f, rounds, reliablelink.RoundsConfig{}, nil)
			if rep == nil {
				t.Error("reliablelink: nil report")
			}
			return err
		},
		"netsub": func(n, f, rounds int) error {
			_, rep, err := netsub.RunRounds(n, f, rounds, netsub.RoundsConfig{}, nil)
			if rep == nil {
				t.Error("netsub: nil report")
			}
			return err
		},
		"recovery": func(n, f, rounds int) error {
			_, err := recovery.RunRounds(n, f, rounds, recovery.Config{})
			return err
		},
		"snapshot": func(n, f, rounds int) error {
			_, err := snapshot.RunRounds(n, f, rounds, swmr.Config{}, nil)
			return err
		},
	}
	shapes := []struct {
		name         string
		n, f, rounds int
	}{
		{"no processes", 0, 0, 1},
		{"negative n", -1, 0, 1},
		{"negative f", 3, -1, 1},
		{"f equals n", 3, 3, 1},
		{"f above n", 3, 4, 1},
		{"negative rounds", 3, 1, -1},
	}
	for name, run := range runners {
		for _, s := range shapes {
			var shape *core.ShapeError
			if err := run(s.n, s.f, s.rounds); !errors.As(err, &shape) {
				t.Errorf("%s, %s: error %v, want a *ShapeError", name, s.name, err)
			} else if shape.N != s.n || shape.F != s.f || shape.Rounds != s.rounds {
				t.Errorf("%s, %s: error carries %+v", name, s.name, *shape)
			}
		}
		if err := run(3, 2, 0); err != nil {
			t.Errorf("%s: the boundary shape n=3 f=2 rounds=0 was rejected: %v", name, err)
		}
	}
	for _, s := range []struct{ n, rounds int }{{0, 1}, {-1, 1}, {3, -1}} {
		var shape *core.ShapeError
		if _, err := immediate.RunRounds(s.n, s.rounds, swmr.Config{}, nil); !errors.As(err, &shape) {
			t.Errorf("immediate, n=%d rounds=%d: error %v, want a *ShapeError", s.n, s.rounds, err)
		} else if want := (core.ShapeError{N: s.n, F: s.n - 1, Rounds: s.rounds}); *shape != want {
			t.Errorf("immediate, n=%d rounds=%d: error carries %+v", s.n, s.rounds, *shape)
		}
	}
	if _, err := immediate.RunRounds(3, 0, swmr.Config{}, nil); err != nil {
		t.Errorf("immediate: the boundary shape n=3 rounds=0 was rejected: %v", err)
	}
}
