package main

import (
	"strconv"
	"sync/atomic"

	"bcpqp"
)

// coreStats is one per-core worker's cycle accounting. The worker
// goroutine writes it; /metrics scrapes and the final stats read it.
type coreStats struct {
	recvCalls  atomic.Int64 // recvmmsg calls that returned packets
	recvPkts   atomic.Int64 // packets those calls returned
	rxTimeouts atomic.Int64 // idle read deadlines
	txFlushes  atomic.Int64 // sendmmsg flushes that carried packets
	txPkts     atomic.Int64 // packets those flushes sent
	txDropped  atomic.Int64 // accepted packets the transmit path shed
	shed       atomic.Int64 // packets shed because the shard was saturated
	rxWaitNs   atomic.Int64 // time blocked in recvmmsg
	enforceNs  atomic.Int64 // time in inline enforcement
	flushNs    atomic.Int64 // time in sendmmsg
}

// coreFamilyDefs lists the bcpqp_core_* families in the order add fills
// them; the kernel-drop family comes last because it is optional.
var coreFamilyDefs = [...]struct{ name, help string }{
	{"bcpqp_core_recv_calls_total", "Receive syscalls that returned packets."},
	{"bcpqp_core_recv_packets_total", "Packets received; divide by recv calls for packets per syscall."},
	{"bcpqp_core_rx_timeouts_total", "Idle receive deadlines."},
	{"bcpqp_core_tx_flushes_total", "Transmit syscalls that carried packets."},
	{"bcpqp_core_tx_packets_total", "Packets transmitted."},
	{"bcpqp_core_tx_dropped_total", "Accepted packets the transmit path shed on send errors."},
	{"bcpqp_core_rx_wait_seconds_total", "Time blocked waiting to receive."},
	{"bcpqp_core_enforce_seconds_total", "Time spent enforcing received bursts inline."},
	{"bcpqp_core_flush_seconds_total", "Time spent flushing accepted packets."},
	{"bcpqp_core_shed_packets_total", "Packets shed because the core's shard was saturated."},
	{"bcpqp_core_kernel_drops_total", "Datagrams the kernel dropped before the datapath saw them."},
}

// coreFamilies accumulates one sample per core for every bcpqp_core_*
// family.
type coreFamilies []bcpqp.MetricsFamily

func newCoreFamilies() coreFamilies {
	fams := make(coreFamilies, len(coreFamilyDefs))
	for i, d := range coreFamilyDefs {
		fams[i] = bcpqp.MetricsFamily{Name: d.name, Help: d.help, Type: "counter"}
	}
	return fams
}

// add appends core's samples. The kernel-drop sample is omitted when the
// platform cannot read the counter.
func (f coreFamilies) add(core int, s *coreStats, drops int64, haveDrops bool) {
	vals := []float64{
		float64(s.recvCalls.Load()),
		float64(s.recvPkts.Load()),
		float64(s.rxTimeouts.Load()),
		float64(s.txFlushes.Load()),
		float64(s.txPkts.Load()),
		float64(s.txDropped.Load()),
		float64(s.rxWaitNs.Load()) / 1e9,
		float64(s.enforceNs.Load()) / 1e9,
		float64(s.flushNs.Load()) / 1e9,
		float64(s.shed.Load()),
	}
	if haveDrops {
		vals = append(vals, float64(drops))
	}
	labels := []bcpqp.MetricsLabel{{Name: "core", Value: strconv.Itoa(core)}}
	for i, v := range vals {
		f[i].Samples = append(f[i].Samples, bcpqp.MetricsSample{Labels: labels, Value: v})
	}
}

// render returns the families for Middlebox.AttachMetricSource.
func (f coreFamilies) render() []bcpqp.MetricsFamily { return f }
