// Command bcpqp-proxy is a live (non-simulated) rate-enforcing UDP relay:
// the low-rate real-traffic counterpart of the paper's DPDK middlebox that
// a pure-Go build can provide. Datagrams arriving on the listen socket are
// classified by source address into phantom queues and either relayed to
// the forward address or dropped, according to the selected scheme.
//
// Usage:
//
//	bcpqp-proxy -listen :9000 -forward 127.0.0.1:9001 -rate 5 -scheme bc-pqp
//
// A built-in demonstration needs no external tooling:
//
//	bcpqp-proxy -selftest
//
// runs a sink, the proxy, and two competing UDP senders (one paced at its
// fair share, one greedy) over loopback for a few seconds and reports the
// goodput each flow achieved through the enforcer.
//
// The proxy is a well-behaved middlebox process:
//
//   - SIGTERM/SIGINT drain gracefully: in-flight bursts are enforced, the
//     engine's deadline-bounded Close runs (-drain-timeout), its report is
//     logged, and the exit status is nonzero if the shutdown was unclean.
//   - SIGHUP writes a warm-restart snapshot to the -snapshot path
//     (atomic temp-file + rename); at startup an existing snapshot there
//     is restored, so a restarted proxy resumes with the enforcement state
//     (phantom occupancy, burst windows, token levels) it had.
//
// Bufferless schemes only (policer, policer+, fairpolicer, pqp, bc-pqp):
// a relay cannot hold datagrams the way a shaper holds packets.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"bcpqp"
)

func main() {
	opts, selftest, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
		os.Exit(1)
	}
	if selftest > 0 {
		if err := runSelfTest(opts, selftest); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		return
	}
	// signal.Notify never blocks: the buffer keeps a SIGTERM that arrives
	// while a SIGHUP snapshot is being written.
	sigc := make(chan os.Signal, 4)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	opts.sig = sigc
	os.Exit(serve(opts))
}

// parseFlags parses the command line into serve options and checks the
// plane rules: the tree, snapshot and cluster planes act on the single
// "proxy" aggregate, so they need -cores 1. selftest is the
// -selftest-duration when -selftest is set, else 0.
func parseFlags(fs *flag.FlagSet, args []string) (opts proxyOpts, selftest time.Duration, err error) {
	var (
		listen   = fs.String("listen", ":9000", "UDP address to listen on")
		forward  = fs.String("forward", "127.0.0.1:9001", "UDP address to relay to")
		rateMbps = fs.Float64("rate", 5, "enforced rate in Mbps")
		scheme   = fs.String("scheme", "bc-pqp", "enforcement scheme (policer|policer+|fairpolicer|pqp|bc-pqp)")
		queues   = fs.Int("queues", 16, "phantom queues / flow buckets")
		treePath = fs.String("tree", "", "policy-tree JSON spec file: hierarchical ceilings and assured rates enforced instead of the flat -rate/-scheme enforcer (see treespec.go for the format; needs -cores 1)")
		snapPath = fs.String("snapshot", "", "warm-restart snapshot file: restored at startup if present, written on SIGHUP (needs -cores 1)")
		httpAddr = fs.String("http", "", "admin HTTP listener address serving /metrics, /healthz, /cluster, /debug/trace, /debug/vars and /debug/pprof (disabled when empty)")
		nodeID   = fs.String("node-id", "", "cluster node id: enables the peer budget exchange (requires -cluster-listen and -cores 1)")
		peerSpec = fs.String("peers", "", "cluster peers as id=host:port,id2=host:port (exchange addresses, not datapath)")
		clListen = fs.String("cluster-listen", "", "UDP address the budget exchange listens on (e.g. :7400)")
		clKey    = fs.String("cluster-key", "", "shared secret authenticating budget-exchange frames (HMAC-SHA256); all peers must agree. Empty sends frames unauthenticated — only safe on a trusted network")
		sharedFl = fs.Bool("shared", false, "enforce -rate as the CLUSTER-WIDE bound for the proxy aggregate: start at the static r/N share and let the budget exchange reclaim idle peers' headroom")
		overload = fs.Bool("overload", false, "enable the overload-control plane: pressure-driven priority shedding, tightened idle eviction and admission-eviction under table pressure; /healthz reports an active plane as degraded (still 200)")
		coresFl  = fs.Int("cores", 1, "datapath workers (0 = GOMAXPROCS): each owns an SO_REUSEPORT socket and enforces rate/cores inline")
		drain    = fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain deadline on SIGTERM/SIGINT")
		selfFl   = fs.Bool("selftest", false, "run the loopback demonstration and exit")
		duration = fs.Duration("selftest-duration", 5*time.Second, "selftest run length")
	)
	if err := fs.Parse(args); err != nil {
		return opts, 0, err
	}
	rate := bcpqp.Rate(*rateMbps) * bcpqp.Mbps
	opts = proxyOpts{
		listen:       *listen,
		forward:      *forward,
		scheme:       *scheme,
		rate:         rate,
		queues:       *queues,
		treePath:     *treePath,
		cores:        *coresFl,
		snapshotPath: *snapPath,
		httpAddr:     *httpAddr,
		overload:     *overload,
		drainTimeout: *drain,
	}
	if *selfFl {
		selftest = *duration
	}
	if opts.cores != 1 {
		for _, p := range []struct {
			flag string
			set  bool
		}{
			{"-tree", *treePath != ""}, {"-snapshot", *snapPath != ""},
			{"-node-id", *nodeID != ""}, {"-peers", *peerSpec != ""},
			{"-cluster-listen", *clListen != ""}, {"-shared", *sharedFl},
		} {
			if p.set {
				return opts, 0, fmt.Errorf("%s needs -cores 1 (got -cores %d)", p.flag, opts.cores)
			}
		}
	}
	if *nodeID == "" && *peerSpec == "" && *clListen == "" && !*sharedFl {
		return opts, selftest, nil
	}
	peers, err := parsePeers(*peerSpec)
	if err != nil {
		return opts, 0, err
	}
	if *nodeID == "" || *clListen == "" {
		return opts, 0, errors.New("cluster mode needs both -node-id and -cluster-listen")
	}
	if _, self := peers[*nodeID]; self {
		return opts, 0, fmt.Errorf("-peers must not include this node's own id %q", *nodeID)
	}
	opts.cluster = clusterOpts{
		nodeID: *nodeID,
		peers:  peers,
		listen: *clListen,
		shared: *sharedFl,
		rate:   rate,
		key:    *clKey,
	}
	return opts, selftest, nil
}

// proxyAggregate is the id the proxy registers its single enforcer under on
// the middlebox engine at -cores 1; snapshots and the cluster exchange key
// on it, so a restarted proxy restores into the same id.
const proxyAggregate = "proxy"

// proxyOpts parameterizes serve: the parsed flags plus the hooks main and
// tests wire in.
type proxyOpts struct {
	listen, forward string
	scheme          string
	rate            bcpqp.Rate
	queues          int
	// treePath, when set, replaces the flat scheme/rate enforcer with the
	// policy tree in that spec file.
	treePath string
	// cores is the worker count (0 = GOMAXPROCS).
	cores        int
	snapshotPath string
	// httpAddr, when set, serves the observability endpoints (/metrics,
	// /healthz, /cluster, /debug/trace, /debug/vars, /debug/pprof) until
	// shutdown and switches the engine's trace collector on.
	httpAddr string
	// cluster, when enabled, joins the peer budget exchange (and, with
	// shared set, enforces the proxy aggregate's rate cluster-wide).
	cluster clusterOpts
	// overload enables the engine's overload-control plane (defaults:
	// pressure thresholds, harmonic shed classes, admission eviction).
	overload     bool
	drainTimeout time.Duration

	// sig delivers shutdown and snapshot requests: a signal.Notify
	// channel in production, a plain channel in tests and the selftest.
	sig <-chan os.Signal
	// ready, when non-nil, receives the bound addresses once every core
	// is up (tests and the selftest listen on :0).
	ready chan<- boundAddrs
	// forceSingle selects netio's portable single-datagram backend, so
	// tests exercise both backends on any platform. It implies one core.
	forceSingle bool
}

// boundAddrs are the resolved listen and admin addresses ("" without
// -http).
type boundAddrs struct{ listen, admin string }

// auditEnvelope sizes the plan-rate conformance envelope for a scheme: the
// plan rate plus a burst term covering the scheme's worst-case buffering
// (phantom capacity or bucket depth) with 2× slop, so a correct enforcer
// can never trip it while real over-admission — which grows without bound —
// still does. Returns burst 0 (audit off) for unknown schemes. Policy
// trees arm one such envelope per ceilinged node (see parseTreeSpec).
func auditEnvelope(name string, rate bcpqp.Rate, queues int) int64 {
	scheme, err := bcpqp.ParseScheme(name)
	if err != nil {
		return 0
	}
	const maxRTT = 100 * time.Millisecond
	switch scheme {
	case bcpqp.SchemeBCPQP:
		return 2 * int64(queues) * bcpqp.RecommendedQueueSize(rate, maxRTT)
	case bcpqp.SchemePQP:
		return 2 * int64(queues) * bcpqp.RenoQueueRequirement(rate, maxRTT)
	case bcpqp.SchemePolicer, bcpqp.SchemePolicerPlus, bcpqp.SchemeFairPolicer:
		bdp := int64(float64(rate) / 8 * maxRTT.Seconds())
		reno := bcpqp.RenoQueueRequirement(rate, maxRTT)
		if reno > bdp {
			bdp = reno
		}
		return 2 * (bdp + int64(bcpqp.MSS))
	default:
		return 0
	}
}

// writeSnapshot captures a warm-restart image of the engine and persists it
// atomically: temp file in the same directory, then rename, so a crash
// mid-write can never corrupt the previous snapshot.
func writeSnapshot(mb *bcpqp.Middlebox, path string) error {
	snap, err := mb.Snapshot()
	if err != nil {
		return err
	}
	blob, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// restoreSnapshot loads a snapshot file into the engine. The error is
// os.IsNotExist-compatible when no snapshot exists yet.
func restoreSnapshot(mb *bcpqp.Middlebox, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap bcpqp.MiddleboxSnapshot
	if err := snap.UnmarshalBinary(blob); err != nil {
		return err
	}
	return mb.Restore(&snap)
}

// buildEnforcer constructs a bufferless enforcer for live traffic.
func buildEnforcer(name string, rate bcpqp.Rate, queues int) (bcpqp.Enforcer, error) {
	scheme, err := bcpqp.ParseScheme(name)
	if err != nil {
		return nil, err
	}
	const maxRTT = 100 * time.Millisecond
	switch scheme {
	case bcpqp.SchemeBCPQP:
		return bcpqp.NewBCPQP(bcpqp.BCPQPConfig{Rate: rate, Queues: queues, MaxRTT: maxRTT})
	case bcpqp.SchemePQP:
		return bcpqp.NewPQP(rate, queues, nil, 0, maxRTT)
	case bcpqp.SchemePolicer, bcpqp.SchemePolicerPlus:
		return bcpqp.NewPolicer(rate, 0, maxRTT)
	case bcpqp.SchemeFairPolicer:
		return bcpqp.NewFairPolicer(bcpqp.FairPolicerConfig{
			Rate: rate, Bucket: bcpqp.RenoQueueRequirement(rate, maxRTT), Flows: queues,
		})
	default:
		return nil, fmt.Errorf("scheme %v buffers packets and cannot run as a bufferless relay", scheme)
	}
}

// transientNetErr reports whether a socket error is transient for a live
// relay: an ICMP-induced ECONNREFUSED on the connected out-socket (the
// forward target briefly down), an unreachable network/host during a
// routing flap, exhausted socket buffers, or a plain timeout. A policer
// must degrade on these — drop and count — not exit.
func transientNetErr(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ENETUNREACH) ||
		errors.Is(err, syscall.EHOSTUNREACH) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.EAGAIN) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// runSelfTest demonstrates live enforcement over loopback: two senders — a
// greedy one and one paced at its fair share — push datagrams through the
// production serve loop to a counting sink; an in-process SIGTERM then
// drains the proxy.
func runSelfTest(opts proxyOpts, dur time.Duration) error {
	// Sink: counts received bytes per sending flow (first payload byte
	// carries the flow id).
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sink.Close()
	var got [2]atomic.Int64
	go func() {
		buf := make([]byte, 65536)
		for {
			n, _, err := sink.ReadFrom(buf)
			if err != nil {
				return
			}
			if n > 0 && buf[0] < 2 {
				got[buf[0]].Add(int64(n))
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	ready := make(chan boundAddrs, 1)
	opts.listen, opts.forward = "127.0.0.1:0", sink.LocalAddr().String()
	opts.sig, opts.ready = sig, ready
	code := make(chan int, 1)
	go func() { code <- serve(opts) }()
	var listenAddr string
	select {
	case b := <-ready:
		listenAddr = b.listen
	case c := <-code:
		return fmt.Errorf("proxy exited with status %d before serving", c)
	}

	// Sender 0: greedy, sends as fast as pacing at 2× the full rate.
	// Sender 1: well-behaved, paced at half the enforced rate.
	send := func(flow byte, pace time.Duration) {
		conn, err := net.Dial("udp", listenAddr)
		if err != nil {
			return
		}
		defer conn.Close()
		payload := make([]byte, 1200)
		payload[0] = flow
		deadline := time.Now().Add(dur)
		ticker := time.NewTicker(pace)
		defer ticker.Stop()
		for time.Now().Before(deadline) {
			<-ticker.C
			conn.Write(payload)
		}
	}
	fullGap := opts.rate.DurationForBytes(1200)
	go send(0, fullGap/2) // 2× the enforced rate
	done := make(chan struct{})
	go func() { send(1, 2*fullGap); close(done) }() // half the rate (its fair share)

	<-done
	time.Sleep(200 * time.Millisecond)
	sig <- syscall.SIGTERM
	if c := <-code; c != 0 {
		return fmt.Errorf("proxy drain exited with status %d", c)
	}

	rateMbps := float64(opts.rate) / float64(bcpqp.Mbps)
	fmt.Printf("enforced %.1f Mbps via %s for %v over loopback\n", rateMbps, opts.scheme, dur)
	for f := 0; f < 2; f++ {
		mbps := float64(got[f].Load()) * 8 / dur.Seconds() / 1e6
		role := "greedy (2x rate)"
		if f == 1 {
			role = "paced (0.5x rate)"
		}
		fmt.Printf("  flow %d %-18s delivered %.2f Mbps\n", f, role, mbps)
	}
	total := float64(got[0].Load()+got[1].Load()) * 8 / dur.Seconds() / 1e6
	fmt.Printf("  total %.2f Mbps (enforced %.1f)\n", total, rateMbps)
	return nil
}
