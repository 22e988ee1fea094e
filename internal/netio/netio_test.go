package netio

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// exchange pushes k datagrams through a loopback pair and asserts payload
// bytes and extracted sources survive the trip, for whichever backend cfg
// selects.
func exchange(t *testing.T, cfg Config, k int) {
	t.Helper()
	rx, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer rx.Close()
	tx, err := Dial(rx.LocalAddr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tx.Close()

	txPort := tx.LocalAddr().(*net.UDPAddr).Port
	payload := make([][]byte, k)
	for i := range payload {
		payload[i] = []byte{byte(i), byte(i >> 8), 0xbc, byte(100 + i%7)}
		if !tx.QueueTx(payload[i]) {
			if err := tx.FlushTx(); err != nil {
				t.Fatalf("FlushTx: %v", err)
			}
			tx.QueueTx(payload[i])
		}
	}
	if err := tx.FlushTx(); err != nil {
		t.Fatalf("FlushTx: %v", err)
	}

	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	seen := make(map[byte]bool)
	got := 0
	for got < k {
		n, err := rx.RecvBatch()
		if err != nil {
			t.Fatalf("RecvBatch after %d/%d datagrams: %v", got, k, err)
		}
		for i := 0; i < n; i++ {
			p := rx.Payload(i)
			if len(p) != 4 || p[2] != 0xbc {
				t.Fatalf("datagram %d: bad payload %v", got, p)
			}
			idx := int(p[0]) | int(p[1])<<8
			if want := byte(100 + idx%7); p[3] != want {
				t.Fatalf("datagram idx %d: payload byte %d, want %d", idx, p[3], want)
			}
			seen[p[0]] = true
			ip, port := rx.Src(i)
			if ip != 0x7f000001 {
				t.Fatalf("datagram idx %d: src ip %#x, want 127.0.0.1", idx, ip)
			}
			if int(port) != txPort {
				t.Fatalf("datagram idx %d: src port %d, want %d", idx, port, txPort)
			}
			got++
		}
	}
	if len(seen) != k && k <= 256 {
		t.Fatalf("received %d distinct datagrams, want %d", len(seen), k)
	}
}

func TestExchangeFallback(t *testing.T) {
	exchange(t, Config{Batch: 8, ForceSingle: true}, 20)
}

func TestExchangeBatched(t *testing.T) {
	if !SupportsBatch() {
		t.Skip("batched backend not supported on this platform")
	}
	cfg := Config{Batch: 8}
	exchange(t, cfg, 20)

	rx, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer rx.Close()
	if !rx.Batched() {
		t.Fatalf("expected batched backend on this platform")
	}
}

func TestReadDeadline(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		rx, err := Listen("127.0.0.1:0", Config{Batch: 4, ForceSingle: force})
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		_, err = rx.RecvBatch()
		ne, ok := err.(net.Error)
		if !ok || !ne.Timeout() {
			t.Fatalf("RecvBatch(force=%v) = %v, want net.Error timeout", force, err)
		}
		rx.Close()
	}
}

func TestReusePort(t *testing.T) {
	if !SupportsBatch() {
		t.Skip("SO_REUSEPORT requires the batched backend")
	}
	cfg := Config{Batch: 4, ReusePort: true}
	a, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen a: %v", err)
	}
	defer a.Close()
	b, err := Listen(a.LocalAddr().String(), cfg)
	if err != nil {
		t.Fatalf("Listen b on same address: %v", err)
	}
	defer b.Close()

	// Kernel hashes flows across the two sockets; with many distinct
	// source sockets at least one datagram must land on each... is not
	// guaranteed for small counts, so just assert everything arrives.
	const senders = 16
	for i := 0; i < senders; i++ {
		tx, err := Dial(a.LocalAddr().String(), cfg)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		tx.QueueTx([]byte{byte(i)})
		if err := tx.FlushTx(); err != nil {
			t.Fatalf("FlushTx %d: %v", i, err)
		}
		tx.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	a.SetReadDeadline(deadline)
	b.SetReadDeadline(deadline)
	got := 0
	for _, rx := range []*Conn{a, b} {
		for got < senders {
			rx.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, err := rx.RecvBatch()
			if err != nil {
				break // drained this socket; the rest are on the other
			}
			got += n
		}
	}
	if got != senders {
		t.Fatalf("received %d datagrams across the REUSEPORT pair, want %d", got, senders)
	}
}

func TestReusePortRefusedOnFallback(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{ReusePort: true, ForceSingle: true}); err == nil {
		t.Fatalf("Listen with ReusePort+ForceSingle succeeded, want error")
	}
}

// TestFlushTxCountsUnsent aims a Conn at a loopback port with no
// listener: once the ICMP port-unreachable comes back, flushes fail with
// ECONNREFUSED, and Unsent must count the queued datagrams those failed
// flushes shed, on both backends, while successful flushes count nothing.
func TestFlushTxCountsUnsent(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		hole, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := hole.LocalAddr().String()
		hole.Close()
		tx, err := Dial(addr, Config{Batch: 8, ForceSingle: force})
		if err != nil {
			t.Fatalf("Dial(force=%v): %v", force, err)
		}
		p := []byte{1, 2, 3, 4}
		var queued, failed int64
		for i := 0; i < 200 && failed == 0; i++ {
			for j := 0; j < 8; j++ {
				tx.QueueTx(p)
			}
			queued += 8
			before := tx.Unsent()
			if err := tx.FlushTx(); err != nil {
				failed++
				if tx.Unsent() == before {
					t.Errorf("force=%v: failed flush (%v) counted no unsent datagrams", force, err)
				}
			} else if tx.Unsent() != before {
				t.Errorf("force=%v: successful flush moved Unsent %d -> %d", force, before, tx.Unsent())
			}
			time.Sleep(time.Millisecond)
		}
		if failed == 0 {
			t.Errorf("force=%v: no flush to a closed port failed in %d datagrams", force, queued)
		}
		if u := tx.Unsent(); u <= 0 || u > queued {
			t.Errorf("force=%v: Unsent = %d, want within (0, %d]", force, u, queued)
		}
		tx.Close()
	}
}

// TestSteadyStateAllocs locks in the 0 allocs/op contract on the receive
// and transmit hot paths, for both backends.
func TestSteadyStateAllocs(t *testing.T) {
	for _, force := range []bool{true, false} {
		if !force && !SupportsBatch() {
			continue
		}
		cfg := Config{Batch: 8, ForceSingle: force}
		rx, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatalf("Listen(force=%v): %v", force, err)
		}
		tx, err := Dial(rx.LocalAddr().String(), cfg)
		if err != nil {
			t.Fatalf("Dial(force=%v): %v", force, err)
		}
		p := []byte{1, 2, 3, 4}
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		cycle := func() {
			tx.QueueTx(p)
			if err := tx.FlushTx(); err != nil {
				t.Fatalf("FlushTx: %v", err)
			}
			for {
				if _, err := rx.RecvBatch(); err != nil {
					t.Fatalf("RecvBatch: %v", err)
				}
				return
			}
		}
		cycle() // warm up poller timers and lazy paths
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 0 {
			t.Errorf("force=%v: %.2f allocs per rx/tx cycle, want 0", force, allocs)
		}
		rx.Close()
		tx.Close()
	}
}

func TestBlast(t *testing.T) {
	cfg := Config{Batch: 8, BufBytes: 256}
	rx, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer rx.Close()

	src := workload.NewFlood(workload.FloodConfig{
		Rate: units.MbpsRate(100), Flows: 4, PktSize: 100, Duration: time.Second,
	})
	const want = 50
	pkts, bytes, err := Blast(rx.LocalAddr().String(), src, BlastConfig{
		Config: cfg, MaxPackets: want,
	})
	if err != nil {
		t.Fatalf("Blast: %v", err)
	}
	if pkts != want {
		t.Fatalf("Blast sent %d packets, want %d", pkts, want)
	}
	if bytes != want*100 {
		t.Fatalf("Blast sent %d bytes, want %d", bytes, want*100)
	}

	got := 0
	rx.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got < want {
		n, err := rx.RecvBatch()
		if err != nil {
			t.Fatalf("RecvBatch after %d/%d: %v", got, want, err)
		}
		for i := 0; i < n; i++ {
			if len(rx.Payload(i)) != 100 {
				t.Fatalf("datagram %d: %d bytes, want 100", got, len(rx.Payload(i)))
			}
			got++
		}
	}
}

func TestBlastStop(t *testing.T) {
	rx, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer rx.Close()
	var stop atomic.Bool
	stop.Store(true)
	src := workload.NewFlood(workload.FloodConfig{
		Rate: units.MbpsRate(100), Flows: 1, PktSize: 64, Duration: time.Hour,
	})
	pkts, _, err := Blast(rx.LocalAddr().String(), src, BlastConfig{Stop: &stop})
	if err != nil {
		t.Fatalf("Blast: %v", err)
	}
	if pkts != 0 {
		t.Fatalf("Blast with pre-set stop sent %d packets, want 0", pkts)
	}
}
