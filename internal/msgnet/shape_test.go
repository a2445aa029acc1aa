package msgnet_test

import (
	"errors"
	"testing"

	"repro/internal/msgnet"
	"repro/internal/netsub"
	"repro/internal/recovery"
	"repro/internal/reliablelink"
)

// TestShapeValidatedOnce: every round runner rejects a shape outside
// eq. (3) with the same typed error, before it builds anything — f ≥ n
// used to make every round of the two virtual runners "complete" with
// an empty view.
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
			var shape *msgnet.ShapeError
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
}
