package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
)

func TestBuildEnforcer(t *testing.T) {
	for _, name := range []string{"policer", "policer+", "fairpolicer", "pqp", "bc-pqp"} {
		enf, err := buildEnforcer(name, 5*bcpqp.Mbps, 8)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if enf == nil {
			t.Errorf("%s: nil enforcer", name)
		}
	}
	if _, err := buildEnforcer("shaper", 5*bcpqp.Mbps, 8); err == nil {
		t.Error("buffering scheme accepted for a bufferless relay")
	}
	if _, err := buildEnforcer("nope", 5*bcpqp.Mbps, 8); err == nil {
		t.Error("unknown scheme accepted")
	}
}

// TestSelfTestLoopback runs the full live datapath (sink, proxy, two
// senders) over loopback for a short real-time window.
func TestSelfTestLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time loopback test")
	}
	opts := proxyOpts{scheme: "bc-pqp", rate: 5 * bcpqp.Mbps, queues: 8, cores: 1, drainTimeout: 5 * time.Second}
	if err := runSelfTest(opts, 1500*time.Millisecond); err != nil {
		t.Fatalf("selftest: %v", err)
	}
}

// TestTransientNetErrClassification pins which socket errors the relay
// treats as survivable (drop and count) versus fatal (exit).
func TestTransientNetErrClassification(t *testing.T) {
	transient := []error{
		syscall.ECONNREFUSED,
		syscall.ENETUNREACH,
		syscall.EHOSTUNREACH,
		syscall.ENOBUFS,
		syscall.EAGAIN,
		fmt.Errorf("write udp: %w", syscall.ECONNREFUSED), // wrapped, as net.OpError yields
		&net.OpError{Op: "write", Err: timeoutErr{}},
	}
	for _, err := range transient {
		if !transientNetErr(err) {
			t.Errorf("transientNetErr(%v) = false, want true", err)
		}
	}
	fatal := []error{
		nil,
		syscall.EBADF,
		syscall.EINVAL,
		errors.New("use of closed network connection"),
	}
	for _, err := range fatal {
		if transientNetErr(err) {
			t.Errorf("transientNetErr(%v) = true, want false", err)
		}
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// startSink opens a loopback UDP sink that counts the bytes it receives.
func startSink(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	var sunk atomic.Int64
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := sink.ReadFrom(buf)
			if err != nil {
				return
			}
			sunk.Add(int64(n))
		}
	}()
	return sink.LocalAddr().String(), &sunk
}

// startProxy runs serve on a loopback :0 listen address with a test-fed
// signal channel and waits until every core is up. It returns the bound
// addresses, the signal channel and the exit-code future. cores defaults
// to 1 (the flag default) and drainTimeout to 5s.
func startProxy(t *testing.T, opts proxyOpts) (boundAddrs, chan<- os.Signal, <-chan int) {
	t.Helper()
	opts.listen = "127.0.0.1:0"
	if opts.cores == 0 {
		opts.cores = 1
	}
	if opts.drainTimeout == 0 {
		opts.drainTimeout = 5 * time.Second
	}
	sig := make(chan os.Signal, 1)
	ready := make(chan boundAddrs, 1)
	opts.sig, opts.ready = sig, ready
	code := make(chan int, 1)
	go func() { code <- serve(opts) }()
	select {
	case b := <-ready:
		return b, sig, code
	case c := <-code:
		t.Fatalf("serve exited early with %d", c)
	case <-time.After(5 * time.Second):
		t.Fatal("serve never came up")
	}
	return boundAddrs{}, nil, nil
}

// drainProxy sends s and asserts the proxy drains to exit 0 within 10s.
func drainProxy(t *testing.T, sig chan<- os.Signal, code <-chan int, s os.Signal) {
	t.Helper()
	sig <- s
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("drain on %v exited %d, want 0", s, c)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("proxy did not exit within 10s of %v", s)
	}
}

// scrapeMetrics fetches the admin /metrics page and sums each family's
// samples.
func scrapeMetrics(t *testing.T, admin string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + admin + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sums[name] += v
	}
	return sums
}

// TestRelaySurvivesUnreachableForward aims the proxy at a loopback port
// with no listener — every accepted datagram's send draws an ICMP
// port-unreachable, surfacing as ECONNREFUSED on the connected socket —
// on both netio backends, and verifies the proxy neither exits nor errors:
// it sheds, counts, and keeps serving until asked to stop. Every accepted
// datagram must be accounted for exactly: accepted == tx + write-dropped,
// with write-dropped > 0.
func TestRelaySurvivesUnreachableForward(t *testing.T) {
	for _, tc := range []struct {
		name        string
		forceSingle bool
	}{{"batched", false}, {"single", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.forceSingle && !netio.SupportsBatch() {
				t.Skip("batched backend not supported on this platform")
			}
			// Reserve a port, then close it so nothing listens there.
			hole, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			forward := hole.LocalAddr().String()
			hole.Close()

			b, sig, code := startProxy(t, proxyOpts{
				forward: forward, scheme: "policer", rate: 100 * bcpqp.Mbps, queues: 8,
				httpAddr: "127.0.0.1:0", forceSingle: tc.forceSingle,
			})
			conn, err := net.Dial("udp", b.listen)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			payload := make([]byte, 256)
			const sent = 400
			for i := 0; i < sent; i++ {
				if _, err := conn.Write(payload); err != nil {
					t.Fatal(err)
				}
				if i%10 == 0 {
					time.Sleep(time.Millisecond)
				}
			}

			// Wait for the receive counter to settle: the loop is
			// synchronous, so once no datagram is in flight every
			// received one has been enforced and flushed.
			var m map[string]float64
			last := -1.0
			deadline := time.Now().Add(5 * time.Second)
			for {
				time.Sleep(50 * time.Millisecond)
				m = scrapeMetrics(t, b.admin)
				recv := m["bcpqp_core_recv_packets_total"]
				if recv == last && (recv >= sent || time.Now().After(deadline)) {
					break
				}
				last = recv
			}
			select {
			case c := <-code:
				t.Fatalf("proxy exited (%d) on transient write errors", c)
			default:
			}
			accepted := m["bcpqp_aggregate_accepted_packets_total"]
			tx, dropped := m["bcpqp_core_tx_packets_total"], m["bcpqp_core_tx_dropped_total"]
			t.Logf("recv %v, accepted %v, tx %v, write-dropped %v",
				m["bcpqp_core_recv_packets_total"], accepted, tx, dropped)
			if accepted == 0 || accepted != tx+dropped {
				t.Errorf("accepted %v != tx %v + write-dropped %v", accepted, tx, dropped)
			}
			if dropped == 0 {
				t.Error("write-dropped = 0 with the forward port closed")
			}
			drainProxy(t, sig, code, syscall.SIGTERM)
		})
	}
}

// TestServeRelaysLargeDatagram sends datagrams larger than an MTU-sized
// receive slot through the proxy on both netio backends and checks each
// reaches the forward target whole: the receive slots hold a maximal UDP
// datagram, so nothing is truncated before enforcement or transmit.
func TestServeRelaysLargeDatagram(t *testing.T) {
	for _, tc := range []struct {
		name        string
		forceSingle bool
	}{{"batched", false}, {"single", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.forceSingle && !netio.SupportsBatch() {
				t.Skip("batched backend not supported on this platform")
			}
			sink, err := net.ListenPacket("udp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer sink.Close()
			b, sig, code := startProxy(t, proxyOpts{
				forward: sink.LocalAddr().String(), scheme: "policer", rate: 100 * bcpqp.Mbps, queues: 8,
				forceSingle: tc.forceSingle,
			})
			conn, err := net.Dial("udp", b.listen)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			buf := make([]byte, 1<<16)
			for _, size := range []int{4096, 65000} {
				if _, err := conn.Write(make([]byte, size)); err != nil {
					t.Fatal(err)
				}
				sink.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, _, err := sink.ReadFrom(buf)
				if err != nil {
					t.Fatalf("%d-byte datagram never reached the sink: %v", size, err)
				}
				if n != size {
					t.Errorf("sink received %d bytes for a %d-byte datagram", n, size)
				}
			}
			drainProxy(t, sig, code, syscall.SIGTERM)
		})
	}
}

// TestServeGracefulDrainAndSnapshot exercises the proxy's full signal
// protocol over loopback: traffic relays through the inline datapath,
// SIGHUP persists a decodable warm-restart snapshot, SIGTERM drains
// gracefully with exit status 0, and a second proxy started on the same
// snapshot path warm-restarts from it.
func TestServeGracefulDrainAndSnapshot(t *testing.T) {
	sinkAddr, sunk := startSink(t)
	// start launches a proxy with a test-fed signal channel on snapPath.
	start := func(snapPath string) (string, chan<- os.Signal, <-chan int) {
		b, sig, code := startProxy(t, proxyOpts{
			forward: sinkAddr, scheme: "bc-pqp", rate: 50 * bcpqp.Mbps, queues: 8,
			snapshotPath: snapPath,
		})
		return b.listen, sig, code
	}

	snapPath := t.TempDir() + "/proxy.snap"
	addr, sigc, code := start(snapPath)

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 600)
	for i := 0; i < 50; i++ {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}

	// SIGHUP: snapshot written, proxy keeps serving.
	sigc <- syscall.SIGHUP
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP produced no snapshot file")
		}
		time.Sleep(5 * time.Millisecond)
	}
	blob, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap bcpqp.MiddleboxSnapshot
	if err := snap.UnmarshalBinary(blob); err != nil {
		t.Fatalf("snapshot file does not decode: %v", err)
	}
	if len(snap.Aggregates) != 1 || snap.Aggregates[0].ID != proxyAggregate {
		t.Fatalf("snapshot aggregates = %+v, want one %q entry", snap.Aggregates, proxyAggregate)
	}
	select {
	case c := <-code:
		t.Fatalf("proxy exited (%d) on SIGHUP", c)
	default:
	}

	// SIGTERM: graceful drain, clean exit.
	drainProxy(t, sigc, code, syscall.SIGTERM)
	if sunk.Load() == 0 {
		t.Error("no traffic reached the sink through the datapath")
	}

	// Warm restart: a fresh proxy on the same path restores the snapshot
	// and still relays.
	addr2, sigc2, code2 := start(snapPath)
	conn2, err := net.Dial("udp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	before := sunk.Load()
	for i := 0; i < 20; i++ {
		if _, err := conn2.Write(payload); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	relayDeadline := time.Now().Add(5 * time.Second)
	for sunk.Load() == before && time.Now().Before(relayDeadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sunk.Load() == before {
		t.Error("warm-restarted proxy relayed nothing")
	}
	drainProxy(t, sigc2, code2, syscall.SIGINT)
}

// TestRestoreSnapshotCorruptFile pins startup behaviour on a bad snapshot:
// restoreSnapshot must reject it (the caller then starts cold) rather than
// panic or half-restore.
func TestRestoreSnapshotCorruptFile(t *testing.T) {
	path := t.TempDir() + "/bad.snap"
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	mb := bcpqp.NewMiddlebox(bcpqp.MiddleboxConfig{Shards: 1})
	defer mb.Close()
	if err := restoreSnapshot(mb, path); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
	if err := restoreSnapshot(mb, path+".missing"); !os.IsNotExist(err) {
		t.Fatalf("missing snapshot: err = %v, want IsNotExist", err)
	}
}

// TestParseFlagsPlanes pins the plane rule: -cores 1 accepts every plane,
// while -cores 2 (and 0 = GOMAXPROCS) rejects each flag that needs the
// single "proxy" aggregate.
func TestParseFlagsPlanes(t *testing.T) {
	parse := func(args ...string) (proxyOpts, error) {
		fs := flag.NewFlagSet("bcpqp-proxy", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		opts, _, err := parseFlags(fs, args)
		return opts, err
	}
	all := []string{"-tree", "t.json", "-snapshot", "p.snap", "-node-id", "a",
		"-peers", "b=127.0.0.1:7401", "-cluster-listen", "127.0.0.1:7400", "-shared"}
	opts, err := parse(append([]string{"-cores", "1"}, all...)...)
	if err != nil {
		t.Fatalf("-cores 1 with every plane: %v", err)
	}
	if opts.treePath != "t.json" || opts.snapshotPath != "p.snap" || !opts.cluster.enabled() || !opts.cluster.shared {
		t.Errorf("-cores 1 planes not carried into opts: %+v", opts)
	}
	if opts, err := parse(); err != nil || opts.cores != 1 {
		t.Errorf("defaults: cores=%d err=%v, want 1 core", opts.cores, err)
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-tree", []string{"-tree", "t.json"}},
		{"-snapshot", []string{"-snapshot", "p.snap"}},
		{"-node-id", []string{"-node-id", "a"}},
		{"-peers", []string{"-peers", "b=127.0.0.1:7401"}},
		{"-cluster-listen", []string{"-cluster-listen", "127.0.0.1:7400"}},
		{"-shared", []string{"-shared"}},
	} {
		for _, cores := range []string{"2", "0"} {
			_, err := parse(append([]string{"-cores", cores}, tc.args...)...)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("-cores %s %s: err = %v, want a rejection naming %s", cores, tc.flag, err, tc.flag)
			}
		}
	}
	if _, err := parse("-cores", "2", "-overload", "-http", "127.0.0.1:0"); err != nil {
		t.Errorf("-cores 2 with -overload -http: %v", err)
	}
	if _, err := parse("-node-id", "a"); err == nil {
		t.Error("-node-id without -cluster-listen accepted")
	}
	if _, err := parse("-node-id", "a", "-cluster-listen", "127.0.0.1:7400", "-peers", "a=127.0.0.1:7401"); err == nil {
		t.Error("-peers naming this node accepted")
	}
}
