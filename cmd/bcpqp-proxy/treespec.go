// Policy-tree configuration for bcpqp-proxy (-tree): a JSON spec file
// describing a whole hierarchy of rate limits — tenant link → plans →
// subscribers — enforced as one aggregate instead of the flat -rate/-scheme
// enforcer. Datagrams are spread over the tree's leaves by source-key hash
// (the same classification a flat multi-queue scheme applies), so each
// leaf's assured rate and every level's ceiling bind per source bucket.
//
// Spec format — a JSON array in topological order (the root first, every
// node after its parent):
//
//	[
//	  {"name": "tenant", "ceiling": {"scheme": "bc-pqp", "rate_mbps": 50, "queues": 16}},
//	  {"name": "gold",   "parent": 0, "ceiling": {"scheme": "policer", "rate_mbps": 20}},
//	  {"name": "alice",  "parent": 1, "assured_mbps": 8},
//	  {"name": "bob",    "parent": 1, "assured_mbps": 8}
//	]
//
// "parent" defaults to 0 (handy: most nodes hang off the root) and must be
// -1 on the first node. "ceiling" is optional per node, as is
// "assured_mbps" (it enables HTB-style borrowing at that node) and
// "burst_bytes" (assured bucket capacity). Ceiling schemes are the proxy's
// bufferless set: policer, policer+, fairpolicer, pqp, bc-pqp.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"bcpqp"
)

// treeNodeJSON is one node of the -tree spec file.
type treeNodeJSON struct {
	Name    string `json:"name"`
	Parent  *int   `json:"parent,omitempty"`
	Ceiling *struct {
		Scheme   string  `json:"scheme"`
		RateMbps float64 `json:"rate_mbps"`
		Queues   int     `json:"queues,omitempty"`
	} `json:"ceiling,omitempty"`
	AssuredMbps float64 `json:"assured_mbps,omitempty"`
	BurstBytes  int64   `json:"burst_bytes,omitempty"`
}

// nodeEnvelope is the conformance envelope of one ceilinged tree node,
// armed with Middlebox.ArmNodeAudit.
type nodeEnvelope struct {
	node  bcpqp.NodeID
	rate  bcpqp.Rate
	burst int64
}

// loadTreeSpec reads a -tree JSON file and builds the policy tree.
func loadTreeSpec(path string, defaultQueues int) (*bcpqp.PolicyTree, []nodeEnvelope, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return parseTreeSpec(blob, defaultQueues)
}

// parseTreeSpec builds a policy tree from spec-file bytes, plus the audit
// envelope of every node with a ceiling (sized by auditEnvelope, as for a
// flat enforcer of the same scheme). The enforcer stages behind each
// ceiling come from the same bufferless constructor set as the flat
// -scheme flag; defaultQueues applies when a ceiling omits "queues".
func parseTreeSpec(blob []byte, defaultQueues int) (*bcpqp.PolicyTree, []nodeEnvelope, error) {
	var nodes []treeNodeJSON
	if err := json.Unmarshal(blob, &nodes); err != nil {
		return nil, nil, fmt.Errorf("tree spec: %w", err)
	}
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("tree spec: empty")
	}
	spec := make([]bcpqp.PolicyTreeNode, len(nodes))
	var envs []nodeEnvelope
	for i, n := range nodes {
		parent := 0
		if i == 0 {
			parent = -1
		}
		if n.Parent != nil {
			parent = *n.Parent
		}
		var stage bcpqp.CascadeStage
		if c := n.Ceiling; c != nil {
			queues := c.Queues
			if queues <= 0 {
				queues = defaultQueues
			}
			rate := bcpqp.Rate(c.RateMbps) * bcpqp.Mbps
			enf, err := buildEnforcer(c.Scheme, rate, queues)
			if err != nil {
				return nil, nil, fmt.Errorf("tree spec node %d (%s): %w", i, n.Name, err)
			}
			s, ok := enf.(bcpqp.CascadeStage)
			if !ok {
				return nil, nil, fmt.Errorf("tree spec node %d (%s): scheme %s cannot serve as a tree ceiling",
					i, n.Name, c.Scheme)
			}
			stage = s
			if burst := auditEnvelope(c.Scheme, rate, queues); burst > 0 {
				envs = append(envs, nodeEnvelope{node: bcpqp.NodeID(i), rate: rate, burst: burst})
			}
		}
		spec[i] = bcpqp.PolicyTreeNode{
			Name:    n.Name,
			Parent:  parent,
			Stage:   stage,
			Assured: bcpqp.Rate(n.AssuredMbps) * bcpqp.Mbps,
			Burst:   n.BurstBytes,
		}
	}
	tree, err := bcpqp.NewPolicyTree(spec)
	if err != nil {
		return nil, nil, fmt.Errorf("tree spec: %w", err)
	}
	return tree, envs, nil
}
