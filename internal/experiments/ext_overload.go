package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/mbox"
	"bcpqp/internal/packet"
	"bcpqp/internal/rng"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// ExtOverload is an extension experiment beyond the paper's figures: the
// overload-survival summary. The paper's §6 evaluation drives
// congestion-controlled mixes; production policers also meet traffic that
// does not negotiate. This experiment replays the four adversarial
// families from internal/workload — a constant-rate UDP flood, a hard
// on/off bursty flood, a mixed-RTT swarm and a short-flow storm — against
// an engine with the overload-control plane enabled, and reports how the
// load was disposed of: enforced (accepted/dropped by Theorem-1
// admission), ring-shed, or priority-shed, and whether the engine ended
// the storm healthy.
//
// Every generator is open-loop and seeded, so the table is deterministic
// per seed and the disposition columns sum exactly to the offered column.
func ExtOverload(scale Scale, seed uint64) (*Report, error) {
	dur := 300 * time.Millisecond
	if scale == Full {
		dur = 2 * time.Second
	}

	type scenario struct {
		name string
		src  workload.Source
	}
	scenarios := []scenario{
		{"constant flood ×25", workload.NewFlood(workload.FloodConfig{
			Rate: 200 * units.Mbps, Duration: dur, Flows: 8, SrcIP: 1,
		})},
		{"bursty flood ×25 (20% duty)", workload.NewFlood(workload.FloodConfig{
			Rate: 200 * units.Mbps, Duration: dur,
			Period: 50 * time.Millisecond, Duty: 0.2, Flows: 8, SrcIP: 2,
		})},
		{"mixed-RTT swarm (2–50 ms)", workload.NewSwarm(rng.New(seed), workload.SwarmConfig{
			Flows: 128, Duration: dur, SrcIP: 3,
		})},
		{"short-flow storm (slow start)", workload.NewStorm(rng.New(seed+1), workload.StormConfig{
			Concurrency: 64, Duration: dur, SrcIP: 4,
		})},
	}

	table := &Table{Columns: []string{"adversarial workload", "offered pkts",
		"accepted", "dropped", "shed", "healthy after"}}
	for _, sc := range scenarios {
		row, err := runOverloadScenario(sc.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		table.AddRow(sc.name,
			fmt.Sprintf("%d", row.offered),
			fmt.Sprintf("%d", row.accepted),
			fmt.Sprintf("%d", row.dropped),
			fmt.Sprintf("%d", row.shed),
			fmt.Sprintf("%v", row.healthy),
		)
	}
	return &Report{
		ID:    "ext-overload",
		Title: "Extension: overload survival under adversarial workloads",
		Sections: []Section{{
			Table: table,
			Notes: []string{
				"offered = accepted + dropped + shed exactly (open-loop generators);",
				"accepted stays within the Theorem-1 bound r·Δt + B per aggregate no",
				"matter the offered multiple; shed counts both full-ring and",
				"priority (overload-plane) sheds; healthy = every shard back to",
				"Healthy once the storm ends",
			},
		}},
	}, nil
}

type overloadRow struct {
	offered  int64
	accepted int64
	dropped  int64
	shed     int64
	healthy  bool
}

// runOverloadScenario drives one adversarial source through a fresh
// overload-enabled engine (8 tbf aggregates spanning all four shed
// classes, pinned round-robin to 2 shards with deliberately shallow rings)
// and reconciles the disposition.
//
// The engine is overdriven by construction, not by racing the generator
// against the shard goroutines: before the generator starts, an in-band
// Flush parks each shard until the generator has finished. Each ring
// therefore holds at most QueueDepth bursts of the storm, the overload
// plane engages off the full rings, and everything else is shed — whatever
// the host's speed or the race detector's slowdown. The parked Flushes then
// return and the queued bursts are enforced.
func runOverloadScenario(src workload.Source) (overloadRow, error) {
	const (
		aggs   = 8
		shards = 2
		rate   = 8 * units.Mbps
		bucket = int64(64 * units.MSS)
	)
	var ticks atomic.Int64
	e := mbox.New(mbox.Config{
		Shards: shards, QueueDepth: 16,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
		WatchdogInterval: time.Millisecond,
		CloseTimeout:     10 * time.Second,
		Overload:         mbox.OverloadConfig{Enabled: true},
	})
	defer e.Close()
	ids := make([]string, aggs)
	handles := make([]mbox.Handle, aggs)
	for i := 0; i < aggs; i++ {
		ids[i] = fmt.Sprintf("adv-%d", i)
		h, err := e.AddPinned(ids[i], i%shards, tbf.MustNew(rate, bucket), nil)
		if err != nil {
			return overloadRow{}, err
		}
		if err := e.SetShedClass(ids[i], i%4); err != nil {
			return overloadRow{}, err
		}
		handles[i] = h
	}

	// Park every shard (ids[j] lives on shard j for j < shards) until the
	// generator has finished.
	release := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()
	parked := make(chan error, 2*shards)
	for j := 0; j < shards; j++ {
		go func(id string) {
			parked <- e.Flush(id, func(enforcer.Enforcer) {
				parked <- nil
				<-release
			})
		}(ids[j])
	}
	for j := 0; j < shards; j++ {
		if err := <-parked; err != nil {
			return overloadRow{}, err
		}
	}

	var buf [64]packet.Packet
	for i := 0; ; i++ {
		_, n, ok := src.Next(buf[:])
		if !ok {
			break
		}
		h := handles[(int(buf[0].Key.SrcPort)+i)%aggs]
		if err := e.SubmitBatch(h, buf[:n]); err != nil {
			return overloadRow{}, err
		}
	}
	unpark()

	// Drain: every ring empty, then check the shards reclassified Healthy.
	deadline := time.Now().Add(10 * time.Second)
	for {
		idle := true
		for _, sh := range e.Health().Shards {
			if sh.QueueDepth != 0 || sh.Busy {
				idle = false
			}
		}
		if idle {
			break
		}
		if time.Now().After(deadline) {
			return overloadRow{}, fmt.Errorf("shard rings never drained")
		}
		time.Sleep(time.Millisecond)
	}
	healthy := true
	for time.Now().Before(deadline) {
		healthy = true
		for _, sh := range e.Health().Shards {
			if sh.State != mbox.ShardHealthy {
				healthy = false
			}
		}
		if healthy {
			break
		}
		time.Sleep(time.Millisecond)
	}

	var row overloadRow
	row.healthy = healthy
	row.offered, _ = src.Offered()
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			return overloadRow{}, err
		}
		row.accepted += st.AcceptedPackets
		row.dropped += st.DroppedPackets
	}
	h := e.Health()
	row.shed = h.Overloaded + h.Overload.PriorityShed
	if got := row.accepted + row.dropped + row.shed; got != row.offered {
		return overloadRow{}, fmt.Errorf("disposition %d != offered %d", got, row.offered)
	}
	return row, nil
}
