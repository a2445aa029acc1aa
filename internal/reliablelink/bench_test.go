package reliablelink

import (
	"testing"

	"repro/internal/faultnet"
	"repro/internal/msgnet"
)

// BenchmarkLinkRounds measures the round protocol over reliable links on a
// substrate that loses 30% of the messages: the reliable-link rung of the
// ladder, one layer above msgnet's BenchmarkRounds.
func BenchmarkLinkRounds(b *testing.B) {
	const n, f, rounds = 6, 2, 4
	retransmits, woken := 0, 0
	var p0 *msgnet.Node // RunRounds, but for keeping a node to read the run's hand-overs off
	under := func(nd *msgnet.Node) msgnet.Substrate {
		if nd.Me == 0 {
			p0 = nd
		}
		return nd
	}
	for i := 0; i < b.N; i++ {
		plan := faultnet.Plan{Seed: int64(i), Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.3}}}
		_, rep, err := runRounds(n, f, rounds, RoundsConfig{
			Net: msgnet.Config{Chooser: msgnet.Seeded(int64(i)), Faults: plan.Injector()},
		}, nil, under)
		if err != nil {
			b.Fatal(err)
		}
		retransmits += rep.Retransmissions
		woken += wakes(p0)
	}
	b.ReportMetric(float64(retransmits)/float64(b.N), "retransmits/op")
	b.ReportMetric(float64(woken)/float64(b.N), "wakes/op")
}
