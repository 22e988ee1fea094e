package ptree

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
)

// Stacked limits as chain trees: the link (innermost) limit is the root,
// the subscriber's own limit the leaf.

// chain builds a linear tree from stages given outermost (leaf) first and
// returns it with its leaf.
func chain(stages ...enforcer.Stage) (*Tree, enforcer.NodeID) {
	n := len(stages)
	spec := make([]NodeSpec, n)
	for i := range spec {
		spec[i] = NodeSpec{Parent: i - 1, Stage: stages[n-1-i]}
	}
	return MustNew(spec), enforcer.NodeID(n - 1)
}

// TestSingleStageMatchesPlainSubmit: a one-node tree admits exactly the
// packets its stage's own Submit would admit.
func TestSingleStageMatchesPlainSubmit(t *testing.T) {
	plain := newPQP(8*units.Mbps, 2)
	tr, leaf := chain(newPQP(8*units.Mbps, 2))

	now := time.Duration(0)
	var plainAcc, treeAcc int
	for i := 0; i < 5000; i++ {
		now += 600 * time.Microsecond // 2.5 MB/s offered vs 1 MB/s
		p := pkt(i%2, units.MSS)
		if plain.Submit(now, p) == enforcer.Transmit {
			plainAcc++
		}
		if tr.SubmitAt(now, leaf, p) == enforcer.Transmit {
			treeAcc++
		}
	}
	if plainAcc != treeAcc {
		t.Errorf("tree admitted %d, plain submit %d", treeAcc, plainAcc)
	}
}

// TestLinkLevelCapsSubscribers: two 5 Mbps subscriber leaves under an
// 8 Mbps link root — each subscriber is capped at 5, and their sum at 8.
func TestLinkLevelCapsSubscribers(t *testing.T) {
	tr := MustNew([]NodeSpec{
		{Name: "link", Parent: -1, Stage: newPQP(8*units.Mbps, 2)}, // one queue per subscriber
		{Name: "a", Parent: 0, Stage: newPQP(5*units.Mbps, 1)},
		{Name: "b", Parent: 0, Stage: newPQP(5*units.Mbps, 1)},
	})

	// Both subscribers offer 10 Mbps for 10 virtual seconds; Class picks
	// each subscriber's queue at the link (single-queue leaves ignore it).
	gap := (10 * units.Mbps).DurationForBytes(units.MSS)
	now := time.Duration(0)
	var accA, accB int64
	for now < 10*time.Second {
		now += gap
		if tr.SubmitAt(now, 1, pkt(0, units.MSS)) == enforcer.Transmit {
			accA += units.MSS
		}
		if tr.SubmitAt(now, 2, pkt(1, units.MSS)) == enforcer.Transmit {
			accB += units.MSS
		}
	}
	mbpsA := float64(accA) * 8 / 10 / 1e6
	mbpsB := float64(accB) * 8 / 10 / 1e6
	if mbpsA > 5.3 || mbpsB > 5.3 {
		t.Errorf("subscriber exceeded its cap: A=%.2f B=%.2f Mbps", mbpsA, mbpsB)
	}
	if total := mbpsA + mbpsB; total > 8.4 {
		t.Errorf("link cap violated: %.2f Mbps total", total)
	}
	if mbpsA < 3.4 || mbpsB < 3.4 {
		t.Errorf("link level starved a subscriber: A=%.2f B=%.2f", mbpsA, mbpsB)
	}
}

// TestNoPhantomLeakOnOuterDrop: when the link level rejects, the
// subscriber level must not have enqueued a phantom copy — the accounting
// bug two-phase admission exists to prevent.
func TestNoPhantomLeakOnOuterDrop(t *testing.T) {
	sub := newPQP(10*units.Mbps, 1)
	tr, leaf := chain(sub, tbf.MustNew(units.Mbps, units.MSS)) // tiny link: rejects almost everything

	now := time.Millisecond
	var accepted int64
	for i := 0; i < 100; i++ {
		if tr.SubmitAt(now, leaf, pkt(0, units.MSS)) == enforcer.Transmit {
			accepted += units.MSS
		}
	}
	// The subscriber's phantom queue must hold exactly the accepted
	// bytes — not the offered bytes.
	if got := sub.QueueLength(0); got != accepted {
		t.Errorf("subscriber phantom queue holds %d, want exactly accepted %d", got, accepted)
	}
	if ns, _ := tr.NodeStats(0); ns.DroppedPackets == 0 {
		t.Error("link-level drops not attributed to the root")
	}
	if st := sub.EnforcerStats(); st.AcceptedBytes != accepted {
		t.Errorf("subscriber stats charged %d, want %d", st.AcceptedBytes, accepted)
	}
}

// TestChainUpperBoundsProperty: for random offered loads, a chain never
// admits more than either level's token-bucket bound allows.
func TestChainUpperBoundsProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		subRate := 4 * units.Mbps
		linkRate := 6 * units.Mbps
		subB := int64(20 * units.MSS)
		linkB := int64(30 * units.MSS)
		tr, leaf := chain(tbf.MustNew(subRate, subB), tbf.MustNew(linkRate, linkB))
		now := time.Duration(0)
		var accepted int64
		for _, g := range gaps {
			now += time.Duration(g%3000) * time.Microsecond
			if tr.SubmitAt(now, leaf, pkt(0, units.MSS)) == enforcer.Transmit {
				accepted += units.MSS
			}
		}
		okSub := float64(accepted) <= float64(subB)+subRate.Bytes(now)+1
		okLink := float64(accepted) <= float64(linkB)+linkRate.Bytes(now)+1
		return okSub && okLink
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// chainStages builds a random stack of 2–4 stages, outermost (the
// subscriber's own limit) first, ready for chain. No assured rates, so the
// borrow layer is disabled and the tree must reproduce the reference
// cascade exactly.
func chainStages(seed uint64) (mk func() []enforcer.Stage) {
	return func() []enforcer.Stage {
		r := rng.New(seed)
		n := 2 + r.IntN(3)
		stages := make([]enforcer.Stage, n)
		for i := range stages {
			rate := units.Rate(4+r.IntN(17)) * units.Mbps
			if r.IntN(2) == 0 {
				stages[i] = newTBF(rate)
			} else {
				stages[i] = newPQP(rate, 1+r.IntN(4))
			}
		}
		return stages
	}
}

// refCascade is the reference semantics of stacked limits: probe every
// stage outermost first, drop at (and attribute the drop to) the first
// stage that refuses, and commit to all stages only when all admit.
type refCascade struct {
	stages    []enforcer.Stage
	stats     enforcer.Stats
	droppedAt []int64
}

func (c *refCascade) submit(now time.Duration, p packet.Packet) enforcer.Verdict {
	for i, s := range c.stages {
		if !s.Probe(now, p) {
			c.droppedAt[i]++
			c.stats.Reject(p.Size)
			return enforcer.Drop
		}
	}
	for _, s := range c.stages {
		s.Commit(now, p)
	}
	c.stats.Accept(p.Size)
	return enforcer.Transmit
}

// TestChainEquivalence: a linear-chain policy tree produces byte-identical
// verdicts, stats and per-stage drop attribution to the reference
// all-or-nothing cascade over the same stage configurations, under
// randomized bursty traffic.
func TestChainEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			mk := chainStages(seed)
			cascStages := mk()
			treeStages := mk()
			casc := &refCascade{stages: cascStages, droppedAt: make([]int64, len(cascStages))}
			tr, leaf := chain(treeStages...)
			n := len(treeStages)
			if !tr.IsLeaf(leaf) || tr.IsLeaf(0) && n > 1 {
				t.Fatalf("chain leaf/root mixed up")
			}

			r := rng.New(seed ^ 0x9e3779b97f4a7c15)
			now := time.Duration(0)
			meanGap := (10 * units.Mbps).DurationForBytes(units.MSS)
			for b := 0; b < 400; b++ {
				np := 1 + r.IntN(48)
				now += time.Duration(float64(meanGap) * float64(np) * r.Range(0.3, 0.9))
				if r.IntN(20) == 0 {
					now += 150 * time.Millisecond
				}
				for k := 0; k < np; k++ {
					size := units.MSS
					if r.IntN(4) == 0 {
						size = 64 + r.IntN(units.MSS-64)
					}
					p := pkt(r.IntN(4), size)
					vc := casc.submit(now, p)
					vt := tr.SubmitAt(now, leaf, p)
					if vc != vt {
						t.Fatalf("burst %d pkt %d: cascade %v, tree %v", b, k, vc, vt)
					}
				}
			}
			if cs, ts := casc.stats, tr.EnforcerStats(); cs != ts {
				t.Errorf("stats diverged: cascade %+v, tree %+v", cs, ts)
			}
			for i := 0; i < n; i++ {
				// Cascade stage i == tree node n-1-i.
				ns, err := tr.NodeStats(enforcer.NodeID(n - 1 - i))
				if err != nil {
					t.Fatalf("NodeStats: %v", err)
				}
				if ns.DroppedPackets != casc.droppedAt[i] {
					t.Errorf("stage %d drop attribution: cascade %d, tree %d",
						i, casc.droppedAt[i], ns.DroppedPackets)
				}
			}
		})
	}
}
