package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bcpqp"
)

// runPerCore drives the datapath end to end over loopback: N senders
// overdrive a 5 Mbps bound, the sink counts what gets through, /metrics
// carries one bcpqp_core_* sample per core, and SIGTERM must drain cleanly
// (exit 0).
func runPerCore(t *testing.T, cores int, forceSingle bool) {
	t.Helper()
	sinkAddr, sunkBytes := startSink(t)
	bound, sig, done := startProxy(t, proxyOpts{
		cores:        cores,
		forward:      sinkAddr,
		scheme:       "bc-pqp",
		rate:         5 * bcpqp.Mbps,
		queues:       16,
		drainTimeout: 3 * time.Second,
		httpAddr:     "127.0.0.1:0",
		forceSingle:  forceSingle,
	})
	addr := bound.listen

	// Overdrive: 4 sources × 500 × 1200 B over ~400 ms ≈ 48 Mbps against
	// the 5 Mbps bound — the enforcer must shed most of it.
	const senders, perSender, size = 4, 500, 1200
	var sent atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp", addr)
			if err != nil {
				return
			}
			defer conn.Close()
			payload := make([]byte, size)
			for i := 0; i < perSender; i++ {
				if _, err := conn.Write(payload); err == nil {
					sent.Add(size)
				}
				if i%25 == 0 {
					time.Sleep(10 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond) // let in-flight bursts settle
	checkCoreMetrics(t, "http://"+bound.admin+"/metrics", cores)

	drainProxy(t, sig, done, syscall.SIGTERM)

	got, offered := sunkBytes.Load(), sent.Load()
	if got == 0 {
		t.Fatalf("sink received nothing (offered %d bytes)", offered)
	}
	if got >= offered*3/4 {
		t.Fatalf("sink received %d of %d offered bytes — enforcement did not bite", got, offered)
	}
	t.Logf("cores=%d forceSingle=%v: offered %d bytes, delivered %d", cores, forceSingle, offered, got)
}

// checkCoreMetrics scrapes url and asserts every bcpqp_core_* family
// carries exactly one sample per core (the kernel-drop family may be
// absent where the platform cannot read it) and that the cores received
// traffic.
func checkCoreMetrics(t *testing.T, url string, cores int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}
	samples := map[string]int{}
	var recvPkts float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "bcpqp_core_") {
			continue
		}
		name := line[:strings.IndexByte(line, '{')]
		samples[name]++
		if name == "bcpqp_core_recv_packets_total" {
			var v float64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			recvPkts += v
		}
	}
	for _, d := range coreFamilyDefs {
		n, ok := samples[d.name]
		if !ok && d.name == "bcpqp_core_kernel_drops_total" {
			continue
		}
		if n != cores {
			t.Errorf("%s: %d samples, want one per core (%d)", d.name, n, cores)
		}
	}
	if len(samples) > len(coreFamilyDefs) {
		t.Errorf("unexpected bcpqp_core_* families: %v", samples)
	}
	if recvPkts == 0 {
		t.Errorf("bcpqp_core_recv_packets_total sums to 0 after traffic")
	}
}

func TestServePerCoreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback datapath test")
	}
	runPerCore(t, 2, false)
}

func TestServePerCoreFallbackBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback datapath test")
	}
	runPerCore(t, 1, true)
}

func TestServePerCoreFailsFastOnBadScheme(t *testing.T) {
	done := make(chan int, 1)
	go func() {
		done <- serve(proxyOpts{
			cores:   1,
			listen:  "127.0.0.1:0",
			forward: "127.0.0.1:9",
			scheme:  "no-such-scheme",
			rate:    bcpqp.Mbps,
			queues:  4,
			sig:     make(chan os.Signal),
		})
	}()
	select {
	case code := <-done:
		if code != 1 {
			t.Fatalf("exit code %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("serve with a bad scheme did not fail fast")
	}
}
