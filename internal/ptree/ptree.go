// Package ptree implements an allocation-free hierarchical policy-tree
// enforcer: one object covering a whole rooted tree of rate limits —
// tenant → plan → subscriber — the shape the paper's operators (ISPs,
// cellular carriers) actually configure. A linear chain of stacked limits
// (subscriber under link) is the degenerate unary tree.
//
// # Layout
//
// The tree lives in flat arrays with index-linked nodes: parent,
// first-child and next-sibling are int32 indices, node state (stages,
// token levels, refill clocks, per-node counters) is struct-of-arrays, and
// a NodeID is an array offset. There are no per-node heap objects and no
// pointers between nodes, so a million-leaf tree is a handful of
// contiguous slices (~100 B/node), the datapath never chases pointers, and
// steady-state SubmitBatchAt performs zero allocations. Specs are given in
// topological order (every parent precedes its children), which makes
// cycles unrepresentable at build time; the snapshot decoder re-validates
// topology independently because its input is untrusted.
//
// # Admission
//
// Each node optionally carries a ceiling Stage (enforcer.Stage: a phantom
// queue or token-bucket policer) — the hard cap on its subtree, enforced
// with a two-phase packet-major probe/commit discipline, so every level's
// Theorem 1 bound (accepted ≤ r·Δt + B) holds exactly per interior node. A packet submitted at a leaf probes
// every ceiling on the leaf → root path and is committed to all of them or
// none.
//
// # Borrowing
//
// On top of the ceilings sits an HTB-style assured-rate layer (after
// HTBQueue, arXiv 2109.12879). A leaf with Assured > 0 owns a guarantee
// bucket refilled at its assured rate and clamped at zero; an interior
// node carries a borrow-pool ledger refilled at its own assured rate if
// set, else at the sum of its children's effective rates (its "lend
// rate") — the bandwidth its subtree was promised. Admission requires
// the packet's size be covered cumulatively by the positive buckets
// along its path, nearest first; a packet that cannot be covered is over
// its subtree's share with no idle bandwidth to borrow, and is dropped
// at the entry node. On accept, every assured node on the path is
// charged the full packet size — but leaf guarantee buckets clamp at
// zero while pool ledgers may run into debt (floored at -burst). The
// debt is what makes borrowing exact: a child spending its own guarantee
// still charges the pool (whose lend rate already counts that child's
// share), so the pool's level tracks pooled income minus subtree
// consumption and goes positive — lendable — only while some descendant
// underuses its share. An idle child's unused assured rate is exactly
// what the pool collects, released for siblings to borrow; a lone busy
// child tops out at the pool's lend rate instead of double-dipping its
// own bucket on top of it. Borrowing cascades: when a whole plan's
// subscribers underuse, the level above collects the slack and lends it
// across plans, so a subtree may exceed its own lend rate by drawing an
// ancestor pool's surplus — its ceiling, not its lend rate, is the hard
// cap. A pool bypassed that way sinks to its -burst debt floor and stops
// lending until demand recedes and its income repays the debt. Ceilings
// always bind above the borrow layer, so borrowing never lets a subtree
// exceed any ancestor's ceiling.
package ptree

import (
	"fmt"
	"time"

	"bcpqp/internal/enforcer"
	"bcpqp/internal/units"
)

// DefaultBurstWindow sizes a defaulted assured bucket or borrow pool: the
// bucket holds this much time at the node's refill rate (with a one-MSS
// floor), the classic "rate × small window" policer sizing.
const DefaultBurstWindow = 100 * time.Millisecond

// NodeSpec describes one node of a policy tree.
type NodeSpec struct {
	// Name optionally labels the node for metrics and traces; defaults to
	// "node<i>".
	Name string
	// Parent is the index of the node's parent in the spec slice, -1 for
	// the root. Specs are topologically ordered: the root is spec[0] and
	// every parent index is smaller than its child's.
	Parent int
	// Stage is the node's ceiling — the hard cap on its subtree's rate
	// (a *phantom.PQP, *tbf.Policer, or any enforcer.Stage). Nil means no
	// ceiling at this node.
	Stage enforcer.Stage
	// Assured enables the borrowing layer at this node: the rate its
	// subtree is guaranteed even when siblings are backlogged, and the
	// rate it lends to siblings while idle. Zero disables the layer here
	// (an interior node still pools its children's assured rates).
	Assured units.Rate
	// Burst is the assured bucket (leaf) or borrow pool (interior)
	// capacity in bytes; 0 selects DefaultBurstWindow at the node's
	// refill rate. Only meaningful on nodes participating in the assured
	// layer.
	Burst int64
}

// Tree is a policy-tree enforcer. It implements enforcer.TreeEnforcer,
// enforcer.Enforcer (leaf-routing by packet class), enforcer.BatchSubmitter,
// enforcer.StatsReader, enforcer.Reconfigurer (targeting the root) and
// enforcer.Snapshotter. Not safe for concurrent use.
type Tree struct {
	// Topology, immutable after New. Index-linked: no pointers.
	parent      []int32
	firstChild  []int32 // -1 = leaf
	nextSibling []int32 // -1 = last sibling
	names       []string
	stages      []enforcer.Stage
	leaves      []enforcer.NodeID
	maxDepth    int // nodes on the longest leaf→root path

	// Assured/borrow layer, hot state. ownAssured is the configured rate;
	// effRate is the node's effective refill rate in bytes/sec: its own
	// assured rate if set, else the sum of its children's effective rates
	// (the lend rate of an interior pool). effRate == 0 means the node
	// does not participate.
	ownAssured []float64 // configured, bytes/sec
	effRate    []float64 // effective refill, bytes/sec
	burst      []float64 // bucket/pool capacity, bytes
	floor      []float64 // token floor: 0 for leaf buckets, -burst for pools
	tokens     []float64
	lastFill   []time.Duration

	// Per-node accounting: interior nodes see their whole subtree's
	// admitted traffic (every packet on a path through them), drops are
	// attributed to the rejecting node (the first ceiling that refused,
	// or the entry leaf for borrow-layer rejections).
	accPkts  []int64
	accBytes []int64
	drpPkts  []int64
	drpBytes []int64

	stats enforcer.Stats

	path []int32 // leaf→root scratch, cap maxDepth; reused per packet
}

// New builds a policy tree from a topologically ordered spec: spec[0] is
// the root (Parent == -1) and every other node's Parent precedes it. The
// ordering makes cyclic or multi-root specs unrepresentable.
func New(spec []NodeSpec) (*Tree, error) {
	n := len(spec)
	if n == 0 {
		return nil, fmt.Errorf("ptree: empty spec")
	}
	if spec[0].Parent != -1 {
		return nil, fmt.Errorf("ptree: spec[0] must be the root (Parent -1, got %d)", spec[0].Parent)
	}
	t := &Tree{
		parent:      make([]int32, n),
		firstChild:  make([]int32, n),
		nextSibling: make([]int32, n),
		stages:      make([]enforcer.Stage, n),
		ownAssured:  make([]float64, n),
		effRate:     make([]float64, n),
		burst:       make([]float64, n),
		floor:       make([]float64, n),
		tokens:      make([]float64, n),
		lastFill:    make([]time.Duration, n),
		accPkts:     make([]int64, n),
		accBytes:    make([]int64, n),
		drpPkts:     make([]int64, n),
		drpBytes:    make([]int64, n),
	}
	named := false
	for i, s := range spec {
		if i > 0 && (s.Parent < 0 || s.Parent >= i) {
			return nil, fmt.Errorf("ptree: node %d: parent %d not topologically ordered (want [0,%d))",
				i, s.Parent, i)
		}
		if s.Assured < 0 {
			return nil, fmt.Errorf("ptree: node %d: negative assured rate %v", i, s.Assured)
		}
		if s.Burst < 0 {
			return nil, fmt.Errorf("ptree: node %d: negative burst %d", i, s.Burst)
		}
		if s.Burst > 0 && s.Burst < units.MSS {
			return nil, fmt.Errorf("ptree: node %d: burst %d below one MSS", i, s.Burst)
		}
		t.parent[i] = int32(s.Parent)
		t.firstChild[i] = -1
		t.nextSibling[i] = -1
		t.stages[i] = s.Stage
		t.ownAssured[i] = s.Assured.BytesPerSecond()
		if s.Name != "" {
			named = true
		}
	}
	t.parent[0] = -1
	// Link children in spec order: iterating high-to-low and prepending
	// leaves each child list sorted ascending.
	for i := n - 1; i >= 1; i-- {
		p := t.parent[i]
		t.nextSibling[i] = t.firstChild[p]
		t.firstChild[p] = int32(i)
	}
	if named {
		t.names = make([]string, n)
		for i, s := range spec {
			t.names[i] = s.Name
		}
	}
	// Effective refill rates, children before parents (reverse spec
	// order): a node's own assured rate overrides; otherwise it pools its
	// children's effective rates.
	for i := n - 1; i >= 0; i-- {
		if t.ownAssured[i] > 0 {
			t.effRate[i] = t.ownAssured[i]
		}
		// else effRate[i] already accumulated from children below.
		if p := t.parent[i]; p >= 0 && t.ownAssured[p] == 0 {
			t.effRate[p] += t.effRate[i]
		}
	}
	// Bucket capacities: configured, or DefaultBurstWindow at the refill
	// rate. Buckets start full, as deployed policers do.
	for i := 0; i < n; i++ {
		if spec[i].Burst > 0 && t.effRate[i] == 0 {
			return nil, fmt.Errorf("ptree: node %d: burst %d without an assured rate in its subtree",
				i, spec[i].Burst)
		}
		if t.effRate[i] == 0 {
			continue
		}
		if spec[i].Burst > 0 {
			t.burst[i] = float64(spec[i].Burst)
		} else {
			t.burst[i] = t.effRate[i] * DefaultBurstWindow.Seconds()
			if t.burst[i] < units.MSS {
				t.burst[i] = units.MSS
			}
		}
		t.tokens[i] = t.burst[i]
		if t.firstChild[i] != -1 {
			t.floor[i] = -t.burst[i]
		}
	}
	// Leaves, and the deepest leaf→root path for the scratch buffer.
	for i := 0; i < n; i++ {
		if t.firstChild[i] != -1 {
			continue
		}
		t.leaves = append(t.leaves, enforcer.NodeID(i))
		depth := 0
		for v := int32(i); v >= 0; v = t.parent[v] {
			depth++
		}
		if depth > t.maxDepth {
			t.maxDepth = depth
		}
	}
	t.path = make([]int32, 0, t.maxDepth)
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(spec []NodeSpec) *Tree {
	t, err := New(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// NumNodes implements enforcer.TreeEnforcer.
func (t *Tree) NumNodes() int { return len(t.parent) }

// Parent implements enforcer.TreeEnforcer.
func (t *Tree) Parent(node enforcer.NodeID) enforcer.NodeID {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return enforcer.NoNode
	}
	return enforcer.NodeID(t.parent[node])
}

// IsLeaf implements enforcer.TreeEnforcer.
func (t *Tree) IsLeaf(node enforcer.NodeID) bool {
	return int(node) >= 0 && int(node) < len(t.parent) && t.firstChild[node] == -1
}

// NodeLabel implements enforcer.TreeEnforcer.
func (t *Tree) NodeLabel(node enforcer.NodeID) string {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return ""
	}
	if t.names != nil && t.names[node] != "" {
		return t.names[node]
	}
	return fmt.Sprintf("node%d", node)
}

// Leaves returns the tree's leaf nodes in index order. The slice is the
// tree's own: callers must not mutate it.
func (t *Tree) Leaves() []enforcer.NodeID { return t.leaves }

// AssuredRate returns a node's configured assured rate (zero when the
// borrowing layer is disabled there) and its effective refill rate — for
// interior pools, the lend rate pooled from its children.
func (t *Tree) AssuredRate(node enforcer.NodeID) (configured, effective units.Rate) {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return 0, 0
	}
	return units.Rate(t.ownAssured[node] * 8), units.Rate(t.effRate[node] * 8)
}

// NodeStats implements enforcer.TreeEnforcer. Interior nodes account their
// whole subtree's admitted traffic; drops are attributed to the rejecting
// node.
func (t *Tree) NodeStats(node enforcer.NodeID) (enforcer.Stats, error) {
	if int(node) < 0 || int(node) >= len(t.parent) {
		return enforcer.Stats{}, fmt.Errorf("ptree: node %d out of range [0,%d): %w",
			node, len(t.parent), enforcer.ErrBadNode)
	}
	return enforcer.Stats{
		AcceptedPackets: t.accPkts[node],
		AcceptedBytes:   t.accBytes[node],
		DroppedPackets:  t.drpPkts[node],
		DroppedBytes:    t.drpBytes[node],
	}, nil
}

// EnforcerStats implements enforcer.StatsReader with the tree-level
// (root-subtree) verdict accounting.
func (t *Tree) EnforcerStats() enforcer.Stats { return t.stats }

// fillPath writes the node → root index path into the tree's scratch
// buffer (preallocated to the deepest path: no allocation) and returns it.
func (t *Tree) fillPath(node enforcer.NodeID) []int32 {
	p := t.path[:0]
	for v := int32(node); v >= 0; v = t.parent[v] {
		p = append(p, v)
	}
	return p
}

var _ enforcer.TreeEnforcer = (*Tree)(nil)
var _ enforcer.StatsReader = (*Tree)(nil)
