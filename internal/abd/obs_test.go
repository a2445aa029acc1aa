package abd

import (
	"testing"

	"repro/internal/msgnet"
	"repro/internal/obs"
)

func TestRunObservedWithNetworkObserver(t *testing.T) {
	// A register run observed through the network's observer reports every
	// message hop and the network's end.
	n, f := 3, 1
	m := obs.NewMetrics()
	_, err := Run(n, f, msgnet.Config{Observer: m}, func(r *Register) error {
		if r.Writer() {
			return r.Write("x")
		}
		_, err := r.Read()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Snapshot().Events
	if ev["msgnet.send"] == 0 || ev["msgnet.recv"] == 0 || ev["msgnet.done"] != 1 {
		t.Fatalf("network events missing: %v", ev)
	}
}
