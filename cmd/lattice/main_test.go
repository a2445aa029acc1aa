package main

import (
	"io"
	"strings"
	"testing"
)

// TestLegendEdgesHold: every edge the legend prints is a ⇒ cell of the
// one-round matrix, at the row and column it names.
func TestLegendEdgesHold(t *testing.T) {
	cells, err := matrix(1)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int, len(models))
	for i, m := range models {
		index[m.name] = i
	}
	for _, e := range edges {
		row, okRow := index[e[0]]
		col, okCol := index[e[1]]
		if !okRow || !okCol {
			t.Fatalf("edge %s→%s names a model the matrix lacks", e[0], e[1])
		}
		if got := cells[row][col]; got != "⇒" {
			t.Errorf("edge %s→%s: cell reads %q, want ⇒", e[0], e[1], got)
		}
	}
}

// TestRoundsOutOfRangeRefused: -rounds is 1 or 2; 3 would sweep 7^9 traces
// a cell.
func TestRoundsOutOfRangeRefused(t *testing.T) {
	for _, rounds := range []int{0, 3} {
		if err := run(io.Discard, rounds); err == nil || !strings.Contains(err.Error(), "1 or 2") {
			t.Errorf("rounds=%d: got %v, want a refusal", rounds, err)
		}
	}
}
