package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"bcpqp"
)

// freeUDPPort reserves an OS-assigned UDP port and releases it for the
// caller to bind. The tiny close-and-rebind race is the standard trade for
// needing the address BEFORE the component that binds it exists (both ends
// of the exchange must know each other's port up front).
func freeUDPPort(t *testing.T) string {
	t.Helper()
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := c.LocalAddr().String()
	c.Close()
	return addr
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("b=10.0.0.2:7400, c=10.0.0.3:7400,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["b"] != "10.0.0.2:7400" || peers["c"] != "10.0.0.3:7400" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"nocolonhere", "=addr", "id=", "b=x,b=y"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
	if peers, err := parsePeers(""); err != nil || len(peers) != 0 {
		t.Errorf("empty spec: %v, %v", peers, err)
	}
}

// TestClusterProxyEndToEnd: a full proxy in cluster mode (serve, engine,
// admin endpoints, UDP exchange transport) peered over loopback with a
// facade-level cluster node. The proxy must start degraded on its
// conservative share, report that on /healthz with a 200 (degraded, not
// down), establish the exchange once the peer speaks, expose peer state on
// /cluster and the cluster metric families on /metrics, and still drain to
// exit 0 on SIGTERM.
func TestClusterProxyEndToEnd(t *testing.T) {
	sinkAddr, _ := startSink(t)
	addrA, addrB := freeUDPPort(t), freeUDPPort(t)
	bound, sigc, code := startProxy(t, proxyOpts{
		forward: sinkAddr, scheme: "bc-pqp", rate: bcpqp.Rate(8) * bcpqp.Mbps, queues: 8,
		httpAddr: "127.0.0.1:0",
		cluster: clusterOpts{
			nodeID: "a",
			peers:  map[string]string{"b": addrB},
			listen: addrA,
			shared: true,
			rate:   bcpqp.Rate(8) * bcpqp.Mbps,
			key:    "proxy-e2e-secret",
		},
	})
	base := "http://" + bound.admin

	get := func(path string) (int, []byte) {
		t.Helper()
		var lastErr error
		for i := 0; i < 50; i++ {
			resp, err := http.Get(base + path)
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				return resp.StatusCode, body
			}
			lastErr = err
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("GET %s never succeeded: %v", path, lastErr)
		return 0, nil
	}

	// Alone, the proxy must be on its conservative fallback share: healthy
	// (200) but degraded, with the peer not yet heard.
	var hz struct {
		Healthy  bool `json:"healthy"`
		Degraded bool `json:"degraded"`
	}
	status, body := get("/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz = %d before peer: %s", status, body)
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	if !hz.Healthy || !hz.Degraded {
		t.Fatalf("/healthz before peer: %+v (want healthy AND degraded)", hz)
	}
	var cl struct {
		Self     string `json:"self"`
		Degraded bool   `json:"degraded"`
		Peers    []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"peers"`
		Shared []struct {
			ID         string  `json:"id"`
			FloorBps   float64 `json:"floor_bps"`
			AppliedBps float64 `json:"applied_bps"`
			Fallback   bool    `json:"fallback"`
		} `json:"shared"`
	}
	_, body = get("/cluster")
	if err := json.Unmarshal(body, &cl); err != nil {
		t.Fatalf("/cluster body: %v\n%s", err, body)
	}
	if cl.Self != "a" || len(cl.Peers) != 1 || cl.Peers[0].ID != "b" || len(cl.Shared) != 1 {
		t.Fatalf("/cluster: %s", body)
	}
	if !cl.Shared[0].Fallback || cl.Shared[0].ID != proxyAggregate {
		t.Fatalf("/cluster shared before peer: %s", body)
	}

	// Bring up peer b (idle: observed 0, surplus to grant).
	trB, err := bcpqp.NewClusterTransport(addrB, map[string]string{"a": addrA})
	if err != nil {
		t.Fatal(err)
	}
	defer trB.Close()
	var bShare atomic.Int64
	nodeB, err := bcpqp.NewClusterNode(bcpqp.ClusterConfig{
		Self: "b", Peers: []string{"a"}, Transport: trB,
		Key: []byte("proxy-e2e-secret"),
	}, []bcpqp.SharedAggregate{{
		ID:       proxyAggregate,
		Rate:     bcpqp.Rate(8) * bcpqp.Mbps,
		Observed: func() (int64, bool) { return 0, true },
		Apply: func(r bcpqp.Rate, fb bool) error {
			bShare.Store(int64(r))
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	trB.Start(nodeB.Deliver)
	nodeB.Run()

	// The exchange establishes within a few 250 ms windows.
	deadline := time.Now().Add(8 * time.Second)
	for {
		_, body = get("/cluster")
		if err := json.Unmarshal(body, &cl); err != nil {
			t.Fatalf("/cluster body: %v", err)
		}
		if !cl.Degraded && cl.Peers[0].State == "alive" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("exchange never established: %s", body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	status, body = get("/healthz")
	if err := json.Unmarshal(body, &hz); err != nil || status != http.StatusOK {
		t.Fatalf("/healthz after peer: %d %v", status, err)
	}
	if !hz.Healthy || hz.Degraded {
		t.Fatalf("/healthz after peer: %+v (want healthy, not degraded)", hz)
	}

	// The engine /metrics exposition now carries the cluster families.
	_, body = get("/metrics")
	for _, fam := range []string{"bcpqp_peer_state", "bcpqp_cluster_share_bps", "bcpqp_cluster_fallback"} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}

	drainProxy(t, sigc, code, syscall.SIGTERM)
}
