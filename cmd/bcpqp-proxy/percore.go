package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bcpqp"
	"bcpqp/internal/netio"
)

// The proxy datapath: one run-to-completion loop per core (-cores, default
// 1), each worker pinned to an OS thread and owning the whole path for its
// share of the traffic — a listen socket (SO_REUSEPORT when there are
// several, so the kernel hashes flows across them), an aggregate on its own
// engine shard, and a connected transmit socket. A burst travels
// rx → enforce → tx on one goroutine with zero copies and zero handoffs:
// recvmmsg fills the worker's pinned buffers, the ring-bypass
// LocalSubmitter enforces inline (verdicts reach the emit hook before
// SubmitBatch returns), accepted payloads are queued by reference and leave
// in one sendmmsg. This is the proxy-speed analogue of the DPDK deployment
// model the paper benchmarks against. On platforms without the batched
// backend the same loop runs one datagram per syscall on one core.
//
// At -cores 1 the single aggregate is "proxy": the tree, snapshot, cluster,
// overload, audit and admin planes all act on it. At -cores N each worker
// enforces rate/N on aggregate "proxy/core<i>" (the flat split mirrors the
// cluster plane's static-share floor); flow-consistent REUSEPORT hashing
// keeps each source on one core, so per-flow state never splits, and
// parseFlags refuses the planes that need one aggregate.
//
// Transmit errors the relay can survive (transientNetErr) shed the unsent
// datagrams and count them as write-dropped, so every accepted datagram is
// either in tx or in write-dropped; any other error stops the worker.

// maxDatagram is the receive slot size: the largest UDP datagram.
const maxDatagram = 65536

// perCoreAggregate names core i's aggregate at -cores > 1.
func perCoreAggregate(i int) string { return fmt.Sprintf("proxy/core%d", i) }

// core is one worker's sockets, aggregate and cycle accounting.
type core struct {
	rx, tx *netio.Conn
	id     string
	h      bcpqp.AggregateHandle
	ls     *bcpqp.LocalSubmitter
	coreStats
}

// serve runs the datapath until SIGTERM/SIGINT, then drains gracefully:
// per-core final stats are summed, the middlebox Close is deadline-bounded
// (drainTimeout), its CloseReport is logged, and the exit code is nonzero
// when the shutdown was unclean (a worker failed, wedged shards were
// abandoned or queued packets shed). SIGHUP writes a warm-restart snapshot
// to snapshotPath (temp file + atomic rename); at startup an existing
// snapshot at that path is restored, so a restarted proxy resumes
// enforcement with the phantom occupancy, burst-control windows and token
// levels it had — instead of re-admitting a burst storm from every
// subscriber at once.
func serve(opts proxyOpts) int {
	n := opts.cores
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if opts.forceSingle {
		n = 1
	}
	if n > 1 && !netio.SupportsBatch() {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy: -cores > 1 needs SO_REUSEPORT (linux amd64/arm64); falling back to 1 core")
		n = 1
	}
	var (
		tree *bcpqp.PolicyTree
		envs []nodeEnvelope
	)
	if opts.treePath != "" {
		var err error
		if tree, envs, err = loadTreeSpec(opts.treePath, opts.queues); err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
			return 1
		}
	}

	// Structured, rate-limited fault-plane logging: one line on the first
	// enforcer panic / eviction per aggregate, then every 64th, so a
	// crash-looping enforcer cannot flood stderr. Both hooks must not call
	// back into the engine.
	var flog faultLog
	cfg := bcpqp.MiddleboxConfig{
		Shards:       n,
		CloseTimeout: opts.drainTimeout,
		OnFault: func(id string, recovered any, _ []byte) {
			if id == "" {
				id = "(unattributed)"
			}
			if log, n := flog.note(id); log {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: event=fault aggregate=%q reason=%q count=%d\n",
					id, fmt.Sprint(recovered), n)
			}
		},
		OnEvict: func(id string, final bcpqp.Stats) {
			if log, n := flog.note("evict:" + id); log {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: event=evict aggregate=%q reason=%q count=%d accepted=%d dropped=%d\n",
					id, "idle-ttl", n, final.AcceptedPackets, final.DroppedPackets)
			}
		},
	}
	if opts.overload {
		cfg.Overload = bcpqp.OverloadConfig{Enabled: true, EvictOnFull: true}
	}
	// The admin listener switches the trace collector on: flight-recorder
	// rings, burst-latency digests and per-aggregate meters feed /metrics
	// and /debug/trace. Without -http the engine runs unobserved (fault
	// counters still exist — they are engine-native).
	var (
		admin net.Listener
		col   *bcpqp.Collector
	)
	if opts.httpAddr != "" {
		var err error
		if admin, err = net.Listen("tcp", opts.httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
			return 1
		}
		defer admin.Close()
		col = bcpqp.Observe(&cfg, bcpqp.ObserveOptions{})
	}
	mb := bcpqp.NewMiddlebox(cfg)

	// Receive slots hold a maximal UDP datagram, so EDNS0 answers,
	// reassembled fragments and loopback traffic up to a 64 KiB MTU relay
	// whole (netio.DefaultBatch × 64 KiB = 2 MiB per core). The transmit
	// socket never receives and keeps netio's default slots.
	txCfg := netio.Config{ForceSingle: opts.forceSingle}
	rxCfg := txCfg
	rxCfg.ReusePort, rxCfg.BufBytes = n > 1, maxDatagram
	coreRate := opts.rate / bcpqp.Rate(n)
	cs := make([]*core, n)
	closeSockets := func() {
		for _, c := range cs {
			if c == nil {
				continue
			}
			if c.rx != nil {
				c.rx.Close()
			}
			if c.tx != nil {
				c.tx.Close()
			}
		}
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bcpqp-proxy:", err)
		closeSockets()
		mb.Close()
		return 1
	}
	listen := opts.listen
	for i := range cs {
		c := &core{id: proxyAggregate}
		if n > 1 {
			c.id = perCoreAggregate(i)
		}
		cs[i] = c
		var err error
		if c.rx, err = netio.Listen(listen, rxCfg); err != nil {
			return fail(fmt.Errorf("core %d listen: %w", i, err))
		}
		// Kernel REUSEPORT groups require identical bind addresses; later
		// cores follow the first socket's choice when the listen address
		// was :0 style.
		listen = cs[0].rx.LocalAddr().String()
		if c.tx, err = netio.Dial(opts.forward, txCfg); err != nil {
			return fail(fmt.Errorf("core %d dial: %w", i, err))
		}
		tx := c.tx
		emit := func(p bcpqp.Packet) {
			// Runs inline during the worker's SubmitBatch: queue the
			// accepted payload by reference; it leaves in the worker's
			// FlushTx before the rx buffers are reused.
			if !tx.QueueTx(p.Payload) {
				c.txDropped.Add(1)
			}
		}
		// A policy tree registers node-addressable (per-node stats, in-band
		// node reconfiguration, the /metrics/tree export); a flat enforcer
		// is pinned to the worker's own shard.
		if tree != nil {
			c.h, err = mb.AddTree(c.id, tree, emit)
		} else {
			var enf bcpqp.Enforcer
			if enf, err = buildEnforcer(opts.scheme, coreRate, opts.queues); err != nil {
				return fail(err)
			}
			c.h, err = mb.AddPinned(c.id, i, enf, emit)
		}
		if err != nil {
			return fail(err)
		}
		if c.ls, err = mb.Local(c.h); err != nil {
			return fail(err)
		}
		if col != nil {
			// Wire enforcer-internal events (drops with reason, ECN marks,
			// magic fill/reclaim) into the flight recorder. Token-bucket
			// schemes expose no event hook; that only thins the trace.
			if err := bcpqp.ObserveAggregate(mb, c.id, col); err != nil && !errors.Is(err, bcpqp.ErrNotObservable) {
				fmt.Fprintln(os.Stderr, "bcpqp-proxy: observe:", err)
			}
		}
		// Always-on conformance audit: the plan envelope (with the
		// scheme's buffering slop) is live from the first packet — per
		// core for a flat enforcer, per ceilinged node for a tree — so
		// bcpqp_conformance_violations_total staying at zero is a
		// continuously-checked claim, not an assumption. The proxy submits
		// whole-aggregate bursts, which credit only the root's envelope;
		// interior nodes are armed but read 0 accepted bytes until
		// submission is leaf-addressed.
		if tree != nil {
			for _, env := range envs {
				if err := mb.ArmNodeAudit(c.id, env.node, env.rate, env.burst); err != nil {
					fmt.Fprintln(os.Stderr, "bcpqp-proxy: audit:", err)
				}
			}
		} else if burst := auditEnvelope(opts.scheme, coreRate, opts.queues); burst > 0 {
			if err := mb.ArmAudit(c.id, coreRate, burst); err != nil {
				fmt.Fprintln(os.Stderr, "bcpqp-proxy: audit:", err)
			}
		}
	}

	if opts.snapshotPath != "" {
		switch err := restoreSnapshot(mb, opts.snapshotPath); {
		case err == nil:
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: warm restart from %s\n", opts.snapshotPath)
		case os.IsNotExist(err):
			// First start: nothing to restore.
		default:
			// A stale or incompatible snapshot must not block startup:
			// log and start cold.
			fmt.Fprintf(os.Stderr, "bcpqp-proxy: snapshot restore failed, starting cold: %v\n", err)
		}
	}

	// Cluster exchange: joined after the warm restart so the exchange
	// observes restored counters, and before traffic so a shared aggregate
	// starts at its conservative r/N share, never the full global rate.
	var node *bcpqp.ClusterNode
	if opts.cluster.enabled() {
		var stopCluster func()
		var err error
		if node, stopCluster, err = startCluster(mb, col, opts.cluster); err != nil {
			return fail(fmt.Errorf("cluster: %w", err))
		}
		defer stopCluster()
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: cluster node %q: %d peers, shared=%v\n",
			opts.cluster.nodeID, len(opts.cluster.peers), opts.cluster.shared)
	}
	bound := boundAddrs{listen: listen}
	if col != nil {
		// Per-core cycle telemetry joins the engine's /metrics exposition:
		// one bcpqp_core_* sample per core, plus the kernel's own
		// receive-drop counter so a scrape can reconcile offered load
		// against what the datapath actually saw.
		mb.AttachMetricSource(func() []bcpqp.MetricsFamily {
			b := newCoreFamilies()
			for i, c := range cs {
				drops, haveDrops := c.rx.KernelDrops()
				b.add(i, &c.coreStats, drops, haveDrops)
			}
			return b.render()
		})
		defer startAdmin(admin, mb, node).Close()
		bound.admin = admin.Addr().String()
	}

	var stopping atomic.Bool
	go func() {
		for s := range opts.sig {
			switch s {
			case syscall.SIGHUP:
				if opts.snapshotPath == "" {
					fmt.Fprintln(os.Stderr, "bcpqp-proxy: SIGHUP ignored (no -snapshot path)")
					continue
				}
				if err := writeSnapshot(mb, opts.snapshotPath); err != nil {
					fmt.Fprintf(os.Stderr, "bcpqp-proxy: snapshot failed: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "bcpqp-proxy: snapshot written to %s\n", opts.snapshotPath)
				}
			default: // SIGTERM, SIGINT
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: %v: draining\n", s)
				stopping.Store(true)
				return
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "bcpqp-proxy: %s -> %s (%d cores, batched=%v)\n",
		listen, opts.forward, n, cs[0].rx.Batched())
	if opts.ready != nil {
		opts.ready <- bound
	}

	var exit atomic.Int32
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.run(&stopping); err != nil && !stopping.Load() {
				fmt.Fprintf(os.Stderr, "bcpqp-proxy: core %d %v\n", i, err)
				exit.Store(1)
			}
		}()
	}
	wg.Wait()

	var total bcpqp.Stats
	var shed, txPkts, writeDropped, kernelDrops int64
	kernelDropsKnown := true
	for i, c := range cs {
		// Remove's final-stats barrier reads every burst enforced above.
		if final, err := mb.Remove(c.id); err == nil {
			total.AcceptedPackets += final.AcceptedPackets
			total.AcceptedBytes += final.AcceptedBytes
			total.DroppedPackets += final.DroppedPackets
		}
		shed += c.shed.Load()
		txPkts += c.txPkts.Load()
		writeDropped += c.txDropped.Load()
		// Per-core cycle accounting, read before the sockets close (the
		// kernel drop row vanishes with the socket). recvPkts + kernel
		// drops = what the wire offered this core.
		drops, ok := c.rx.KernelDrops()
		if ok {
			kernelDrops += drops
		} else {
			kernelDropsKnown = false
		}
		pps := 0.0
		if calls := c.recvCalls.Load(); calls > 0 {
			pps = float64(c.recvPkts.Load()) / float64(calls)
		}
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: core %d: recv %d pkts in %d syscalls (%.1f pkts/syscall), tx %d pkts in %d flushes, write-dropped %d, kernel-drops %d, busy rx=%v enforce=%v flush=%v\n",
			i, c.recvPkts.Load(), c.recvCalls.Load(), pps,
			c.txPkts.Load(), c.txFlushes.Load(), c.txDropped.Load(), drops,
			time.Duration(c.rxWaitNs.Load()).Round(time.Millisecond),
			time.Duration(c.enforceNs.Load()).Round(time.Millisecond),
			time.Duration(c.flushNs.Load()).Round(time.Millisecond))
	}
	closeSockets()
	rep := mb.Close()
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: final stats: accepted %d (%d bytes), dropped %d, shed %d, tx %d, write-dropped %d\n",
		total.AcceptedPackets, total.AcceptedBytes, total.DroppedPackets, shed, txPkts, writeDropped)
	if kernelDropsKnown {
		fmt.Fprintf(os.Stderr, "bcpqp-proxy: reconciliation: kernel dropped %d datagrams before the datapath (engine saw offered minus exactly these)\n",
			kernelDrops)
	}
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: datapath: inline-bursts %d, inline-fallbacks %d\n",
		mb.InlineBursts.Load(), mb.InlineFallbacks.Load())
	fmt.Fprintf(os.Stderr, "bcpqp-proxy: close report: clean=%v abandoned-shards=%d shed-packets=%d\n",
		rep.Clean, rep.AbandonedShards, rep.ShedPackets)
	if !rep.Clean {
		exit.Store(1)
	}
	return int(exit.Load())
}

// run is one worker's receive → enforce → transmit loop. It returns nil
// once stopping is set, or the error that stopped the core.
func (c *core) run(stopping *atomic.Bool) error {
	// Run-to-completion: pin the worker to an OS thread so the scheduler
	// never migrates its socket wakeups mid-burst.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pkts := make([]bcpqp.Packet, c.rx.Batch())
	for !stopping.Load() {
		// Bounded block so stop is honoured within ~100ms when idle.
		t0 := time.Now()
		c.rx.SetReadDeadline(t0.Add(100 * time.Millisecond))
		n, err := c.rx.RecvBatch()
		c.rxWaitNs.Add(time.Since(t0).Nanoseconds())
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				c.rxTimeouts.Add(1)
				continue
			}
			return fmt.Errorf("read: %w", err)
		}
		for j := 0; j < n; j++ {
			ip, port := c.rx.Src(j)
			pl := c.rx.Payload(j)
			pkts[j] = bcpqp.Packet{
				Key:     bcpqp.FlowKey{SrcIP: ip, SrcPort: port, Proto: 17},
				Size:    len(pl),
				Class:   bcpqp.NoClass,
				Payload: pl,
			}
		}
		c.recvCalls.Add(1)
		c.recvPkts.Add(int64(n))
		// Inline enforcement: verdicts hit emit (queueing tx refs) before
		// SubmitBatch returns, so flushing here completes the burst while
		// the rx views are still valid.
		t1 := time.Now()
		err = c.ls.SubmitBatch(c.h, pkts[:n])
		c.enforceNs.Add(time.Since(t1).Nanoseconds())
		if errors.Is(err, bcpqp.ErrShardSaturated) {
			c.shed.Add(int64(n))
			continue
		}
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		queued := c.tx.QueuedTx()
		if queued == 0 {
			continue
		}
		unsent := c.tx.Unsent()
		t2 := time.Now()
		err = c.tx.FlushTx()
		c.flushNs.Add(time.Since(t2).Nanoseconds())
		unsent = c.tx.Unsent() - unsent
		c.txDropped.Add(unsent)
		if sent := int64(queued) - unsent; sent > 0 {
			c.txFlushes.Add(1)
			c.txPkts.Add(sent)
		}
		if err != nil && !transientNetErr(err) {
			return fmt.Errorf("write: %w", err)
		}
	}
	return nil
}
