package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRingRecordSnapshot(t *testing.T) {
	c := NewCollector(Options{RingDepth: 16})
	for i := 0; i < 10; i++ {
		c.Record(Event{Kind: KindShed, Shard: -1, Agg: -1, A: int64(i)})
	}
	evs := c.Events()
	if len(evs) != 10 {
		t.Fatalf("Events() = %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d (sorted by global sequence)", i, e.Seq, i+1)
		}
		if e.A != int64(i) {
			t.Errorf("event %d: A = %d, want %d", i, e.A, i)
		}
		if e.Wall == 0 {
			t.Errorf("event %d: wall timestamp not stamped", i)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	c := NewCollector(Options{RingDepth: 16})
	for i := 0; i < 100; i++ {
		c.Record(Event{Kind: KindShed, Shard: -1, Agg: -1, A: int64(i)})
	}
	evs := c.Events()
	if len(evs) != 16 {
		t.Fatalf("ring of 16 holds %d events", len(evs))
	}
	if evs[0].A != 84 || evs[len(evs)-1].A != 99 {
		t.Errorf("ring holds A=%d..%d, want 84..99", evs[0].A, evs[len(evs)-1].A)
	}
	if got := c.EventsRecorded(); got != 100 {
		t.Errorf("EventsRecorded = %d, want 100", got)
	}
}

// TestRingConcurrentSnapshot hammers a ring with concurrent writers while
// snapshotting: every returned event must be internally consistent (the
// writer stores A == B), which the per-slot seqlock guarantees.
func TestRingConcurrentSnapshot(t *testing.T) {
	c := NewCollector(Options{RingDepth: 64})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int64(w*1_000_000 + i)
				c.Record(Event{Kind: KindBurst, Shard: -1, Agg: -1, A: v, B: v})
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		for _, e := range c.Events() {
			if e.A != e.B {
				t.Fatalf("torn event: A=%d B=%d", e.A, e.B)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardRecordStampsShard(t *testing.T) {
	c := NewCollector(Options{RingDepth: 16})
	s := c.Shard(3)
	s.Record(Event{Kind: KindPanic, Agg: 7, A: 1})
	evs := c.Events()
	if len(evs) != 1 || evs[0].Shard != 3 || evs[0].Agg != 7 {
		t.Fatalf("shard event = %+v", evs)
	}
}

func TestSampleBurst(t *testing.T) {
	c := NewCollector(Options{SampleEvery: 4})
	s := c.Shard(0)
	var hits int
	for i := 0; i < 16; i++ {
		if s.SampleBurst() {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("SampleEvery=4 over 16 bursts sampled %d, want 4", hits)
	}
}

// digestHist observes vals (nanoseconds) into a fresh digest and returns
// its Prometheus export in seconds, the form /metrics serves.
func digestHist(vals ...int64) HistSnapshot {
	d := NewDigest()
	for _, v := range vals {
		d.Observe(v)
	}
	return d.Snapshot().Hist(1e-9)
}

// TestHistBuckets pins the exported histogram built from a digest: count,
// sum, bucket totals, and every value inside its own bucket's bounds.
func TestHistBuckets(t *testing.T) {
	values := []int64{0, 1, 100, 128, 129, 1000, 1 << 20, 1 << 33, 1 << 40}
	s := digestHist(values...)
	if s.Count != uint64(len(values)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(values))
	}
	var sum int64
	for _, v := range values {
		sum += v
	}
	if got := s.Sum * 1e9; got < float64(sum)*0.999 || got > float64(sum)*1.001 {
		t.Errorf("Sum = %g s, want ≈%d ns", s.Sum, sum)
	}
	var total uint64
	for _, n := range s.Counts {
		total += n
	}
	if total != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, s.Count)
	}
	// The digest covers all of int64: nothing overflows to +Inf.
	if s.Counts[len(s.Counts)-1] != 0 {
		t.Errorf("overflow bucket = %d, want 0", s.Counts[len(s.Counts)-1])
	}
	// Every value must land in a bucket whose bound covers it.
	for _, v := range values {
		idx := digestIdx(v)
		if s.Counts[idx] == 0 {
			t.Errorf("value %d: its bucket %d is empty", v, idx)
		}
		if float64(v)/1e9 > s.Bounds[idx]*(1+1e-12) {
			t.Errorf("value %d above its bucket bound %g", v, s.Bounds[idx])
		}
		if idx > 0 && float64(v)/1e9 <= s.Bounds[idx-1] {
			t.Errorf("value %d at or below the previous bound %g", v, s.Bounds[idx-1])
		}
	}
}

// TestHistBoundsMonotone: scaling to seconds keeps the exported bounds
// strictly increasing, as Prometheus le labels require.
func TestHistBoundsMonotone(t *testing.T) {
	s := digestHist()
	prev := -1.0
	for i, b := range s.Bounds {
		if b <= prev {
			t.Fatalf("bound %d = %g not increasing past %g", i, b, prev)
		}
		prev = b
	}
}

func TestHistQuantile(t *testing.T) {
	if q := digestHist().Quantile(0.5); q != 0 {
		t.Errorf("empty hist quantile = %g, want 0", q)
	}
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = 1000 // 1 µs
	}
	if q := digestHist(vals...).Quantile(0.5); q < 0.9e-6 || q > 1.2e-6 {
		t.Errorf("p50 of 1µs = %g s", q)
	}
}

func TestRateMeter(t *testing.T) {
	var m RateMeter
	if r := m.Rate(); r != 0 {
		t.Errorf("empty meter Rate = %v, want 0", r)
	}
	// 31250 bytes into the first 250 ms window = 1 Mbps.
	m.Add(10*time.Millisecond, 31250)
	if r := float64(m.Rate()); r < 0.99e6 || r > 1.01e6 {
		t.Errorf("first-window Rate = %g bps, want the partial window's ≈1e6", r)
	}
	m.Add(300*time.Millisecond, 1) // advance into window 1
	if r := float64(m.Rate()); r < 0.99e6 || r > 1.01e6 {
		t.Errorf("Rate = %g bps, want ≈1e6", r)
	}
	if m.Total() != 31251 {
		t.Errorf("Total = %d", m.Total())
	}
}

// TestRateMeterIdleGapAndLongRun: an idle gap of two or more windows reads
// as zero, a steady rate reads true over 10k windows, and a time
// regression counts toward the current window.
func TestRateMeterIdleGapAndLongRun(t *testing.T) {
	var m RateMeter
	m.Add(0, 31250)
	m.Add(meterWindow, 31250)
	m.Add(3*meterWindow, 1) // window 2 idle
	if r := m.Rate(); r != 0 {
		t.Errorf("Rate after an idle window = %v, want 0", r)
	}
	m.Add(3*meterWindow+meterWindow/2, 31249)
	m.Add(9*meterWindow, 1) // windows 4..8 idle
	if r := m.Rate(); r != 0 {
		t.Errorf("Rate after five idle windows = %v, want 0", r)
	}

	var s RateMeter
	// 1 Mbps in four Adds per window, for 10k windows.
	const per = 31250 / 4
	for i := 0; i < 40_000; i++ {
		s.Add(time.Duration(i)*meterWindow/4, per)
	}
	if r := float64(s.Rate()); r < 0.99e6 || r > 1.01e6 {
		t.Errorf("steady 1 Mbps reads %g bps after 10k windows", r)
	}
	if s.Total() != 40_000*per {
		t.Errorf("Total = %d", s.Total())
	}
	s.Add(0, 10) // regression: lands in the current window
	if s.Total() != 40_000*per+10 {
		t.Errorf("Total after regression = %d", s.Total())
	}
	if r := float64(s.Rate()); r < 0.99e6 || r > 1.01e6 {
		t.Errorf("regression disturbed the completed window: %g bps", r)
	}
}

func TestAggObsCount(t *testing.T) {
	a := new(AggObs)
	a.Count(10, 15000, 2, 3000, 50*time.Millisecond)
	a.Count(5, 7500, 0, 0, 60*time.Millisecond)
	s := a.Snapshot()
	if s.AcceptedPackets != 15 || s.AcceptedBytes != 22500 ||
		s.DroppedPackets != 2 || s.DroppedBytes != 3000 {
		t.Errorf("Snapshot = %+v", s)
	}
}

func TestCollectorBurstHistMerge(t *testing.T) {
	c := NewCollector(Options{})
	c.Shard(0).ObserveBurst(1000)
	c.Shard(1).ObserveBurst(2000)
	c.Shard(1).ObserveBurst(3000)
	if got := c.Bursts(); got != 3 {
		t.Errorf("Bursts = %d", got)
	}
	if n := c.BurstLatencyDigest().Total(); n != 3 {
		t.Errorf("merged digest Total = %d", n)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindBurst; k <= KindOverload; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("Kind(%d).String() = %q", k, s)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}
