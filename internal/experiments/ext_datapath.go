package experiments

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bcpqp/internal/mbox"
	"bcpqp/internal/netio"
	"bcpqp/internal/packet"
	"bcpqp/internal/tbf"
	"bcpqp/internal/units"
	"bcpqp/internal/workload"
)

// ExtDatapath is an extension experiment beyond the paper's figures: the
// datapath-mode comparison. The paper's evaluation runs BC-PQP inside a
// DPDK-style run-to-completion datapath; this experiment compares the
// retained ring baseline — the single-socket path the proxy ran before it
// had one datapath (one ReadFrom syscall per datagram, payload copy,
// shard-ring handoff) — with the proxy's per-core datapath (SO_REUSEPORT
// sockets, recvmmsg bursts, zero-copy inline enforcement through the
// ring-bypass submitter). This experiment drives the same
// paced open-loop schedule (netio.Blast over real loopback UDP, a
// workload.Flood pinned to a fixed packet rate) at each mode and accounts
// for every datagram: ingested and enforced, or shed by the kernel at the
// listener's receive buffer because the datapath could not drain in time.
// The rx-syscall column is the paper's batching argument made concrete —
// the per-core datapath ingests ≈one burst per syscall where the
// single-socket path pays one syscall per packet.
//
// On platforms without the batched backend (non-Linux, or exotic arches)
// the per-core rows fall back to one portable single-datagram worker and
// the table says so rather than failing.
func ExtDatapath(scale Scale, seed uint64) (*Report, error) {
	pkts := int64(6400)
	if scale == Full {
		pkts = 64000
	}

	type mode struct {
		name  string
		cores int
	}
	modes := []mode{
		{"single-socket ring", 1},
		{"percore inline ×1", 1},
		{"percore inline ×2", 2},
	}

	table := &Table{Columns: []string{"datapath mode", "offered pkts",
		"ingested", "kernel-shed", "accepted", "rx syscalls", "pkts/syscall"}}
	notes := []string{
		"offered = ingested + kernel-shed exactly: the generator is open-loop",
		"(paced to a fixed packet rate, blind to drops), so datagrams the",
		"datapath cannot drain are dropped by the kernel at the listener's",
		"receive buffer, never queued against the enforcer; rx syscalls counts",
		"successful receive calls — batched ingest amortizes one syscall over",
		"a whole burst where the single-socket path pays one per packet",
	}
	if !netio.SupportsBatch() {
		notes = append(notes,
			"batched backend unavailable on this platform: percore rows ran the",
			"portable single-datagram fallback on one worker")
	}
	for _, m := range modes {
		row, err := runDatapathMode(m.name, m.cores, pkts, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		perSyscall := 0.0
		if row.rxCalls > 0 {
			perSyscall = float64(row.ingested) / float64(row.rxCalls)
		}
		table.AddRow(m.name,
			fmt.Sprintf("%d", row.offered),
			fmt.Sprintf("%d", row.ingested),
			fmt.Sprintf("%d", row.offered-row.ingested),
			fmt.Sprintf("%d", row.accepted),
			fmt.Sprintf("%d", row.rxCalls),
			fmt.Sprintf("%.1f", perSyscall),
		)
	}
	return &Report{
		ID:    "ext-datapath",
		Title: "Extension: datapath modes at a fixed open-loop blast",
		Sections: []Section{{
			Table: table,
			Notes: notes,
		}},
	}, nil
}

// pacedSource paces an open-loop schedule to a fixed packet rate: Next
// still never blocks on the consumer (drops stay invisible to the
// generator), but bursts leave the blaster on a clock instead of at line
// rate, which is what "offered load" means on a host where the generator
// and the datapath share CPUs.
type pacedSource struct {
	inner    workload.Source
	interval time.Duration // between bursts of up to one batch
	next     time.Time
}

func (p *pacedSource) Next(buf []packet.Packet) (time.Duration, int, bool) {
	now := time.Now()
	if p.next.IsZero() {
		p.next = now
	}
	if d := p.next.Sub(now); d > 0 {
		time.Sleep(d)
	}
	p.next = p.next.Add(p.interval)
	return p.inner.Next(buf)
}

func (p *pacedSource) Offered() (int64, int64) { return p.inner.Offered() }

type datapathRow struct {
	offered  int64
	ingested int64
	accepted int64
	rxCalls  int64
}

// runDatapathMode drives pkts paced datagrams at one datapath
// configuration and accounts for every one of them. The enforcer bound is
// set far above the offered load so the disposition isolates the datapath.
func runDatapathMode(name string, cores int, pkts int64, seed uint64) (datapathRow, error) {
	percore := name != "single-socket ring"
	if percore && cores > 1 && !netio.SupportsBatch() {
		cores = 1
	}

	var ticks atomic.Int64
	e := mbox.New(mbox.Config{
		Shards:     cores,
		QueueDepth: 1 << 12,
		Clock: func() time.Duration {
			return time.Duration(ticks.Add(1)) * 10 * time.Microsecond
		},
		CloseTimeout: 10 * time.Second,
	})
	defer e.Close()

	const rate, bucket = units.Gbps, int64(1000 * units.MSS)
	ncfg := netio.Config{ReusePort: percore && cores > 1, ForceSingle: !netio.SupportsBatch()}

	type worker struct {
		rx *netio.Conn
		pc net.PacketConn // single-socket mode
		ls *mbox.LocalSubmitter
		h  mbox.Handle
	}
	ws := make([]*worker, cores)
	listen := "127.0.0.1:0"
	ids := make([]string, cores)
	for i := range ws {
		w := &worker{}
		ws[i] = w
		ids[i] = fmt.Sprintf("dp-%d", i)
		var err error
		if percore {
			if w.rx, err = netio.Listen(listen, ncfg); err != nil {
				return datapathRow{}, err
			}
			defer w.rx.Close()
			if i == 0 {
				listen = w.rx.LocalAddr().String()
			}
			if w.h, err = e.AddPinned(ids[i], i, tbf.MustNew(rate, bucket), nil); err != nil {
				return datapathRow{}, err
			}
			if w.ls, err = e.LocalShard(i); err != nil {
				return datapathRow{}, err
			}
		} else {
			if w.pc, err = net.ListenPacket("udp", listen); err != nil {
				return datapathRow{}, err
			}
			defer w.pc.Close()
			listen = w.pc.LocalAddr().String()
			if w.h, err = e.Add(ids[i], tbf.MustNew(rate, bucket), nil); err != nil {
				return datapathRow{}, err
			}
		}
	}

	// One blaster per worker: each gets its own source socket so REUSEPORT
	// spreads the load, and the per-blaster counts sum to offered. 16k pps
	// aggregate (32-packet bursts every 2ms per blaster at cores=1) keeps a
	// shared-CPU host honest: the datapath must drain between bursts.
	const aggregatePPS = 16000
	var offered atomic.Int64
	var blasters sync.WaitGroup
	blastDone := make(chan struct{})
	var blastErr error
	var blastMu sync.Mutex
	for i := 0; i < cores; i++ {
		blasters.Add(1)
		go func(i int) {
			defer blasters.Done()
			src := &pacedSource{
				inner: workload.NewFlood(workload.FloodConfig{
					Rate: 10 * units.Gbps, Duration: time.Hour,
					PktSize: 200, Flows: 8, SrcIP: uint32(seed) + uint32(i) + 1,
				}),
				interval: time.Duration(int64(time.Second) * 32 * int64(cores) / aggregatePPS),
			}
			n, _, err := netio.Blast(listen, src, netio.BlastConfig{
				Config: netio.Config{BufBytes: 256}, MaxPackets: pkts / int64(cores),
			})
			offered.Add(n)
			if err != nil {
				blastMu.Lock()
				blastErr = err
				blastMu.Unlock()
			}
		}(i)
	}
	go func() { blasters.Wait(); close(blastDone) }()

	// Workers drain until the blast is over and their socket has gone idle
	// for a beat — anything still unread past that point was never going to
	// arrive (the kernel shed it at the receive buffer).
	const idle = 100 * time.Millisecond
	var ingested, rxCalls atomic.Int64
	var workers sync.WaitGroup
	for i := range ws {
		workers.Add(1)
		go func(w *worker) {
			defer workers.Done()
			if percore {
				batch := make([]packet.Packet, w.rx.Batch())
				for {
					w.rx.SetReadDeadline(time.Now().Add(idle))
					n, err := w.rx.RecvBatch()
					if err != nil {
						select {
						case <-blastDone:
							return
						default:
							continue
						}
					}
					rxCalls.Add(1)
					for j := 0; j < n; j++ {
						ip, port := w.rx.Src(j)
						pl := w.rx.Payload(j)
						batch[j] = packet.Packet{
							Key:  packet.FlowKey{SrcIP: ip, SrcPort: port, Proto: 17},
							Size: len(pl), Class: packet.NoClass,
						}
					}
					if err := w.ls.SubmitBatch(w.h, batch[:n]); err != nil {
						return
					}
					ingested.Add(int64(n))
				}
			}
			buf := make([]byte, 2048)
			var batch [32]packet.Packet
			count := 0
			flush := func() error {
				if count == 0 {
					return nil
				}
				if err := e.SubmitBatch(w.h, batch[:count]); err != nil {
					return err
				}
				ingested.Add(int64(count))
				count = 0
				return nil
			}
			for {
				w.pc.SetReadDeadline(time.Now().Add(idle))
				n, from, err := w.pc.ReadFrom(buf)
				if err != nil {
					if err := flush(); err != nil {
						return
					}
					select {
					case <-blastDone:
						return
					default:
						continue
					}
				}
				rxCalls.Add(1)
				ua, _ := from.(*net.UDPAddr)
				var ip uint32
				if v4 := ua.IP.To4(); v4 != nil {
					ip = uint32(v4[0])<<24 | uint32(v4[1])<<16 | uint32(v4[2])<<8 | uint32(v4[3])
				}
				batch[count] = packet.Packet{
					Key:  packet.FlowKey{SrcIP: ip, SrcPort: uint16(ua.Port), Proto: 17},
					Size: n, Class: packet.NoClass,
				}
				count++
				if count == len(batch) {
					if err := flush(); err != nil {
						return
					}
				}
			}
		}(ws[i])
	}
	workers.Wait()
	if blastErr != nil {
		return datapathRow{}, blastErr
	}

	var row datapathRow
	row.offered = offered.Load()
	row.ingested = ingested.Load()
	row.rxCalls = rxCalls.Load()
	// Stats is an in-band barrier on the ring path, so after it every
	// ingested packet has been enforced; the tbf bound is far above the
	// paced load, so enforced must reconcile exactly with ingested.
	var enforced int64
	for _, id := range ids {
		st, err := e.Stats(id)
		if err != nil {
			return datapathRow{}, err
		}
		enforced += st.AcceptedPackets + st.DroppedPackets
		row.accepted += st.AcceptedPackets
	}
	if enforced != row.ingested {
		return datapathRow{}, fmt.Errorf("enforced %d != ingested %d", enforced, row.ingested)
	}
	if row.ingested > row.offered {
		return datapathRow{}, fmt.Errorf("ingested %d > offered %d", row.ingested, row.offered)
	}
	return row, nil
}
