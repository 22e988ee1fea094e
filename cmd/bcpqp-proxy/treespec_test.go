package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"bcpqp"
)

const demoTreeSpec = `[
  {"name": "tenant", "ceiling": {"scheme": "policer", "rate_mbps": 50}},
  {"name": "gold",   "parent": 0, "ceiling": {"scheme": "bc-pqp", "rate_mbps": 20, "queues": 8}},
  {"name": "alice",  "parent": 1, "assured_mbps": 8},
  {"name": "bob",    "parent": 1, "assured_mbps": 8}
]`

func TestParseTreeSpec(t *testing.T) {
	tree, envs, err := parseTreeSpec([]byte(demoTreeSpec), 16)
	if err != nil {
		t.Fatalf("parseTreeSpec: %v", err)
	}
	// One audit envelope per ceilinged node (tenant, gold), none for the
	// assured-only leaves.
	if len(envs) != 2 || envs[0].node != 0 || envs[1].node != 1 ||
		envs[0].rate != 50*bcpqp.Mbps || envs[1].rate != 20*bcpqp.Mbps ||
		envs[0].burst <= 0 || envs[1].burst <= 0 {
		t.Errorf("audit envelopes = %+v, want tenant@50Mbps and gold@20Mbps with positive bursts", envs)
	}
	if tree.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", tree.NumNodes())
	}
	if tree.NodeLabel(1) != "gold" || tree.Parent(2) != 1 {
		t.Errorf("topology: label(1)=%q parent(2)=%d", tree.NodeLabel(1), tree.Parent(2))
	}
	if _, eff := tree.AssuredRate(1); eff != 16*bcpqp.Mbps {
		t.Errorf("gold lend rate = %v, want 16 Mbps", eff)
	}

	bad := []struct{ name, spec string }{
		{"not json", `{`},
		{"empty", `[]`},
		{"unknown scheme", `[{"name": "r", "ceiling": {"scheme": "nope", "rate_mbps": 5}}]`},
		{"buffering scheme", `[{"name": "r", "ceiling": {"scheme": "shaper", "rate_mbps": 5}}]`},
		{"root with parent", `[{"name": "r", "parent": 3}]`},
		{"forward parent", `[{"name": "r"}, {"name": "c", "parent": 2}, {"name": "d", "parent": 1}]`},
		{"negative assured", `[{"name": "r", "assured_mbps": -1}]`},
	}
	for _, tc := range bad {
		if _, _, err := parseTreeSpec([]byte(tc.spec), 16); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLoadTreeSpecMissingFile(t *testing.T) {
	if _, _, err := loadTreeSpec(t.TempDir()+"/nope.json", 16); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

// TestServeTreeAggregate runs the proxy over a policy tree: datagrams
// relay through the tree's leaf-routed datapath, the admin /metrics/tree
// endpoint exports per-node counters with path labels, and /debug/audit
// lists an armed auditor for each ceilinged node: the root audited the
// relayed bytes with zero violations, the interior node is armed but not
// yet credited.
func TestServeTreeAggregate(t *testing.T) {
	sinkAddr, sunk := startSink(t)
	specPath := t.TempDir() + "/tree.json"
	if err := os.WriteFile(specPath, []byte(demoTreeSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	bound, sigc, code := startProxy(t, proxyOpts{
		forward: sinkAddr, queues: 16, treePath: specPath, httpAddr: "127.0.0.1:0",
	})

	conn, err := net.Dial("udp", bound.listen)
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

	// The tree datapath must actually relay: wait for sink bytes.
	deadline := time.Now().Add(5 * time.Second)
	for sunk.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sunk.Load() == 0 {
		t.Fatal("no traffic reached the sink through the tree datapath")
	}

	resp, err := http.Get("http://" + bound.admin + "/metrics/tree")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/tree status %d: %s", resp.StatusCode, body)
	}
	text := string(body)
	if !strings.Contains(text, "bcpqp_tree_nodes") {
		t.Errorf("/metrics/tree missing bcpqp_tree_nodes:\n%s", text)
	}
	if !strings.Contains(text, `path="tenant/gold"`) {
		t.Errorf("/metrics/tree missing the tenant/gold path label:\n%s", text)
	}

	resp, err = http.Get("http://" + bound.admin + "/debug/audit")
	if err != nil {
		t.Fatal(err)
	}
	var audit struct {
		Armed           int   `json:"armed"`
		ViolationsTotal int64 `json:"violations_total"`
		Audits          []struct {
			Aggregate     string `json:"aggregate"`
			Node          int32  `json:"node"`
			AcceptedBytes int64  `json:"accepted_bytes"`
			Violations    int64  `json:"violations"`
		} `json:"audits"`
	}
	err = json.NewDecoder(resp.Body).Decode(&audit)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/audit body: %v", err)
	}
	nodes := map[int32]bool{}
	for _, a := range audit.Audits {
		if a.Aggregate != proxyAggregate {
			t.Errorf("audit row for aggregate %q, want %q", a.Aggregate, proxyAggregate)
		}
		if a.Violations != 0 {
			t.Errorf("node %d: %d violations, want 0", a.Node, a.Violations)
		}
		// The proxy submits whole-aggregate bursts, which credit the
		// root's envelope only: the root's zero violations are a checked
		// result. The interior gold ceiling is armed but not yet credited
		// (only leaf-addressed submission reaches it), so its zero
		// violations prove nothing; pin that it saw no bytes.
		switch {
		case a.Node == 0 && a.AcceptedBytes == 0:
			t.Errorf("root node audited no accepted bytes after relayed traffic")
		case a.Node != 0 && a.AcceptedBytes != 0:
			t.Errorf("interior node %d audited %d bytes; whole-aggregate submission should credit the root only",
				a.Node, a.AcceptedBytes)
		}
		nodes[a.Node] = true
	}
	if audit.Armed != 2 || len(nodes) != 2 || !nodes[0] || !nodes[1] || audit.ViolationsTotal != 0 {
		t.Errorf("/debug/audit armed=%d nodes=%v violations=%d, want the tenant (0) and gold (1) ceilings armed with 0 violations",
			audit.Armed, nodes, audit.ViolationsTotal)
	}

	drainProxy(t, sigc, code, syscall.SIGTERM)
}
