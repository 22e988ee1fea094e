package bcpqp

// Datapath benchmarks: real loopback UDP through the engine, comparing the
// retained ring baseline — the single-socket path `bcpqp-proxy` ran before
// it had one datapath (one ReadFrom syscall per datagram, payload copy,
// shard-ring handoff) — against the proxy's run-to-completion datapath
// (`-cores N`: recvmmsg bursts into pinned buffers, zero-copy inline
// enforcement through the ring-bypass LocalSubmitter, one sendmmsg per
// burst out).
//
// The rig is a closed loop: each worker feeds a DefaultBurst of datagrams to
// its own listener through an identical batched feeder socket, then drains
// them through the datapath under test. The loop is starvation-free
// regardless of how many CPUs the host has (free-running senders would
// steal the receive loop's only core on small machines).
//
// The gated pkts/sec metrics time the INGEST WINDOW only — from feed
// completion to enforcement handoff (32 ReadFrom syscalls + payload copies
// + ring enqueue for single-socket; one recvmmsg + inline enforcement for
// percore). Load generation and transmit are excluded from the window in
// both modes: on a shared-CPU host the feeder's per-packet loopback
// delivery cost would otherwise time-share with — and swamp — the datapath
// under test, where in any real deployment the traffic source is other
// machines. The exclusion is conservative for the comparison: the
// single-socket path's enforcement and per-packet Write syscalls run on the
// shard goroutine outside its window, while percore's window includes
// enforcement. ns/op still reflects the whole closed loop. pkts/sec/core is
// packets per second of worker busy time; pkts/sec multiplies by the worker
// count (the run-to-completion scaling model: one independent socket,
// shard, and enforcer per core).
//
// BenchmarkMiddleboxSubmitBatchLocal isolates the ring-bypass enforcement
// layer alone (no sockets) — the inline counterpart of
// BenchmarkMiddleboxSubmitBatch, 0 allocs/op in steady state.

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/netio"
)

// BenchmarkMiddleboxSubmitBatchLocal measures the ring-bypass fast path in
// isolation: bursts enforced inline through LocalSubmitter.SubmitBatch with
// BC-PQP aggregates pinned across shards — no channel send, no cross-core
// handoff. One iteration is one packet, directly comparable to
// BenchmarkMiddleboxSubmitBatch (the ring path on the same workload).
func BenchmarkMiddleboxSubmitBatchLocal(b *testing.B) {
	for _, aggs := range []int{16, 256} {
		aggs := aggs
		b.Run(fmt.Sprintf("aggregates=%d", aggs), func(b *testing.B) {
			shards := runtime.GOMAXPROCS(0)
			if shards > aggs {
				shards = aggs
			}
			var ticks atomic.Int64
			eng := NewMiddlebox(MiddleboxConfig{
				Shards:     shards,
				QueueDepth: 1 << 14,
				Clock: func() time.Duration {
					return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
				},
			})
			defer eng.Close()
			handles := make([]AggregateHandle, aggs)
			for i := range handles {
				enf, err := NewBCPQP(BCPQPConfig{Rate: 20 * Mbps, Queues: 16})
				if err != nil {
					b.Fatal(err)
				}
				h, err := eng.AddPinned(fmt.Sprintf("agg-%d", i), i%shards, enf, nil)
				if err != nil {
					b.Fatal(err)
				}
				handles[i] = h
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each parallel goroutine owns one shard's submitter and
				// round-robins the aggregates pinned there.
				shard := int(next.Add(1)-1) % shards
				ls, err := eng.LocalShard(shard)
				if err != nil {
					b.Error(err)
					return
				}
				var mine []AggregateHandle
				for i := shard; i < aggs; i += shards {
					mine = append(mine, handles[i])
				}
				var burst [DefaultBurst]Packet
				for i := range burst {
					burst[i] = Packet{Key: FlowKey{SrcIP: 1, Proto: 6}, Size: MSS, Class: i & 15}
				}
				i, fill := 0, 0
				for pb.Next() {
					// One iteration = one packet; flush every DefaultBurst.
					if fill++; fill == len(burst) {
						fill = 0
						if err := ls.SubmitBatch(mine[i%len(mine)], burst[:]); err != nil {
							b.Error(err)
							return
						}
						i++
					}
				}
				if fill > 0 {
					ls.SubmitBatch(mine[i%len(mine)], burst[:fill])
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkts/sec")
		})
	}
}

// benchSink binds a UDP socket nobody reads: loopback tx to it always
// succeeds (overflow drops at its receive buffer), so emit cost is measured
// without backpressure or a competing reader.
func benchSink(b *testing.B) (string, func()) {
	b.Helper()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return sink.LocalAddr().String(), func() { sink.Close() }
}

// benchFeeder dials a batched feeder socket for the closed-loop rig. Every
// datapath mode feeds through this same conn type, so its per-burst cost
// (one sendmmsg) cancels out of cross-mode comparisons.
func benchFeeder(b *testing.B, dst string) *netio.Conn {
	b.Helper()
	conn, err := netio.Dial(dst, netio.Config{BufBytes: 256})
	if err != nil {
		b.Fatal(err)
	}
	return conn
}

// feedBurst queues and flushes n copies of payload — the closed loop's
// "offered load" for one burst. Loopback tx never blocks; if the listener's
// buffer were to overflow the drain side's deadline bounds the stall.
func feedBurst(c *netio.Conn, payload []byte, n int) {
	for i := 0; i < n; i++ {
		c.QueueTx(payload)
	}
	c.FlushTx()
}

// benchEnforcer builds the high-ceiling BC-PQP used by the datapath rigs:
// fast virtual time (one tick per burst) needs a rate well above the
// offered load so accepted traffic actually exercises the emit/tx path.
func benchEnforcer(b *testing.B) Enforcer {
	b.Helper()
	enf, err := NewBCPQP(BCPQPConfig{Rate: 40 * Gbps, Queues: 16})
	if err != nil {
		b.Fatal(err)
	}
	return enf
}

// BenchmarkDatapathSingleSocket is the retained ring baseline, the proxy's
// former single-socket datapath: one shared socket, one ReadFrom syscall
// and one payload copy per datagram, bursts assembled under a drain
// deadline, enforcement via the shard ring, one Write syscall per accepted
// datagram. The per-core datapath is gated against it (≥2× at burst 32).
func BenchmarkDatapathSingleSocket(b *testing.B) {
	rx, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	sinkAddr, closeSink := benchSink(b)
	defer closeSink()
	dst, err := net.ResolveUDPAddr("udp", sinkAddr)
	if err != nil {
		b.Fatal(err)
	}
	out, err := net.DialUDP("udp", nil, dst)
	if err != nil {
		b.Fatal(err)
	}
	defer out.Close()

	var ticks atomic.Int64
	eng := NewMiddlebox(MiddleboxConfig{
		QueueDepth: 1 << 14,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
	})
	defer eng.Close()
	h, err := eng.Add("proxy", benchEnforcer(b), func(p Packet) { out.Write(p.Payload) })
	if err != nil {
		b.Fatal(err)
	}

	feed := benchFeeder(b, rx.LocalAddr().String())
	defer feed.Close()
	payload := make([]byte, 200)
	var (
		bufs [DefaultBurst][]byte
		pkts [DefaultBurst]Packet
	)
	for i := range bufs {
		bufs[i] = make([]byte, 2048)
	}
	b.ReportAllocs()
	b.ResetTimer()
	received := 0
	var drain time.Duration
	for received < b.N {
		feedBurst(feed, payload, DefaultBurst)
		// One drain deadline per burst, as the (fixed) proxy read loop; the
		// whole burst is already queued on loopback so reads never park.
		rx.SetReadDeadline(time.Now().Add(2 * time.Second))
		t0 := time.Now()
		count := 0
		for count < DefaultBurst {
			n, from, err := rx.ReadFrom(bufs[count])
			if err != nil {
				break // deadline: the kernel shed part of the burst
			}
			pkts[count] = Packet{Key: benchKey(from), Size: n, Class: NoClass,
				Payload: append([]byte(nil), bufs[count][:n]...)}
			count++
		}
		if count == 0 {
			continue
		}
		if err := eng.SubmitBatch(h, pkts[:count]); err != nil {
			b.Fatal(err)
		}
		drain += time.Since(t0)
		received += count
	}
	b.StopTimer()
	pps := float64(received) / drain.Seconds()
	b.ReportMetric(pps, "pkts/sec")
	b.ReportMetric(pps, "pkts/sec/core") // one datapath worker
}

func benchKey(addr net.Addr) FlowKey {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return FlowKey{}
	}
	var ip uint32
	if v4 := ua.IP.To4(); v4 != nil {
		ip = uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
	}
	return FlowKey{SrcIP: ip, SrcPort: uint16(ua.Port), Proto: 17}
}

// BenchmarkDatapathPerCore is the percore-mode datapath: per-core
// SO_REUSEPORT sockets, recvmmsg bursts into pinned buffers, zero-copy
// inline enforcement through the ring-bypass submitter, sendmmsg out. The
// counter is global across workers, so pkts/sec is the whole datapath and
// pkts/sec/core the per-worker figure the paper's run-to-completion
// comparison wants.
func BenchmarkDatapathPerCore(b *testing.B) {
	for _, cores := range []int{1, 4} {
		cores := cores
		if cores > 1 && !netio.SupportsBatch() {
			continue // REUSEPORT fan-out needs the batched backend
		}
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			sinkAddr, closeSink := benchSink(b)
			defer closeSink()
			var ticks atomic.Int64
			eng := NewMiddlebox(MiddleboxConfig{
				Shards:     cores,
				QueueDepth: 1 << 10,
				Clock: func() time.Duration {
					return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
				},
			})
			defer eng.Close()

			ncfg := netio.Config{ReusePort: cores > 1, ForceSingle: !netio.SupportsBatch()}
			type worker struct {
				rx, tx *netio.Conn
				ls     *LocalSubmitter
				h      AggregateHandle
			}
			ws := make([]*worker, cores)
			listen := "127.0.0.1:0"
			for i := range ws {
				w := &worker{}
				ws[i] = w
				var err error
				if w.rx, err = netio.Listen(listen, ncfg); err != nil {
					b.Fatal(err)
				}
				defer w.rx.Close()
				if i == 0 {
					listen = w.rx.LocalAddr().String()
				}
				if w.tx, err = netio.Dial(sinkAddr, ncfg); err != nil {
					b.Fatal(err)
				}
				defer w.tx.Close()
				tx := w.tx
				if w.h, err = eng.AddPinned(fmt.Sprintf("proxy/core%d", i), i, benchEnforcer(b),
					func(p Packet) { tx.QueueTx(p.Payload) }); err != nil {
					b.Fatal(err)
				}
				if w.ls, err = eng.LocalShard(i); err != nil {
					b.Fatal(err)
				}
			}

			// Each worker closed-loops against its own socket: REUSEPORT
			// hashes a feeder's fixed 4-tuple to one listener, so every
			// worker needs its own feeder dialed at the group address. A
			// feeder may land on a sibling's listener — workers drain
			// whatever arrives, and the global counter keeps the loop
			// honest either way.
			feeds := make([]*netio.Conn, cores)
			for i := range feeds {
				feeds[i] = benchFeeder(b, listen)
				defer feeds[i].Close()
			}
			payload := make([]byte, 200)
			var received, drainNanos atomic.Int64
			var wwg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for i := range ws {
				wwg.Add(1)
				go func(i int, w *worker, feed *netio.Conn) {
					defer wwg.Done()
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
					pkts := make([]Packet, w.rx.Batch())
					var drain time.Duration
					defer func() { drainNanos.Add(int64(drain)) }()
					for received.Load() < int64(b.N) {
						// Strict feed-one/drain-one: globally the feeds and
						// drains balance, so any REUSEPORT hash imbalance is
						// bounded by a listener's rcvbuf (kernel drops the
						// excess) rather than growing without bound.
						feedBurst(feed, payload, w.rx.Batch())
						w.rx.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
						t0 := time.Now()
						n, err := w.rx.RecvBatch()
						if err != nil {
							continue // deadline: burst hashed to a sibling
						}
						for j := 0; j < n; j++ {
							ip, port := w.rx.Src(j)
							pl := w.rx.Payload(j)
							pkts[j] = Packet{Key: FlowKey{SrcIP: ip, SrcPort: port, Proto: 17},
								Size: len(pl), Class: NoClass, Payload: pl}
						}
						if err := w.ls.SubmitBatch(w.h, pkts[:n]); err != nil {
							b.Error(err)
							return
						}
						drain += time.Since(t0)
						w.tx.FlushTx()
						received.Add(int64(n))
					}
				}(i, ws[i], feeds[i])
			}
			wwg.Wait()
			b.StopTimer()
			perCore := float64(received.Load()) * 1e9 / float64(drainNanos.Load())
			b.ReportMetric(perCore*float64(cores), "pkts/sec")
			b.ReportMetric(perCore, "pkts/sec/core")
		})
	}
}
