package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
)

// MemberChange is the POST /v1/members request body, accepted by the
// coordinator (which also syncs workers) and by workers (which update
// their local ring for peer fill and replication, and repair placement
// through the ring's OnChange hook).
type MemberChange struct {
	// Action is "add", "remove" (Node required) or "set" (Nodes
	// required, replacing the member list wholesale).
	Action string   `json:"action"`
	Node   string   `json:"node,omitempty"`
	Nodes  []string `json:"nodes,omitempty"`
}

// MembersReply reports the membership after a change (or a GET).
type MembersReply struct {
	Members []string `json:"members"`
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
	Changed bool     `json:"changed"`
}

// validateNodeURL rejects anything that is not a usable base URL.
func validateNodeURL(p string) error {
	u, err := url.Parse(p)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cluster: node %q is not a base URL", p)
	}
	return nil
}

// applyChange mutates ring according to ch. It returns what actually
// changed; an add of an existing member or a remove of an unknown one
// is an idempotent no-op, not an error.
func applyChange(ring *Ring, ch MemberChange) (added, removed []string, err error) {
	switch ch.Action {
	case "add":
		if err := validateNodeURL(ch.Node); err != nil {
			return nil, nil, err
		}
		if ring.Add(ch.Node) {
			added = []string{ch.Node}
		}
	case "remove":
		if ch.Node == "" {
			return nil, nil, fmt.Errorf("cluster: remove needs a node")
		}
		members := ring.Nodes()
		if len(members) == 1 && members[0] == ch.Node {
			return nil, nil, fmt.Errorf("cluster: refusing to remove the last member %q", ch.Node)
		}
		if ring.Remove(ch.Node) {
			removed = []string{ch.Node}
		}
	case "set":
		for _, n := range ch.Nodes {
			if err := validateNodeURL(n); err != nil {
				return nil, nil, err
			}
		}
		return ring.SetMembers(ch.Nodes)
	default:
		return nil, nil, fmt.Errorf("cluster: unknown membership action %q", ch.Action)
	}
	return added, removed, nil
}

// WorkerMux layers the fleet-membership endpoints over a worker's base
// API. The coordinator pushes ring updates here after every membership
// change, so the worker's peer fill and replica writes follow the fleet
// as it grows and shrinks instead of staying frozen at boot.
func WorkerMux(base http.Handler, ring *Ring, logf func(format string, args ...any)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/members", func(w http.ResponseWriter, r *http.Request) {
		var ch MemberChange
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&ch); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode member change: %w", err))
			return
		}
		added, removed, err := applyChange(ring, ch)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if logf != nil && (len(added) > 0 || len(removed) > 0) {
			logf("cluster: membership updated (+%d -%d), now %d members", len(added), len(removed), len(ring.Nodes()))
		}
		writeJSON(w, http.StatusOK, MembersReply{
			Members: ring.Nodes(),
			Added:   added,
			Removed: removed,
			Changed: len(added) > 0 || len(removed) > 0,
		})
	})
	mux.HandleFunc("GET /v1/members", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, MembersReply{Members: ring.Nodes()})
	})
	mux.Handle("/", base)
	return mux
}
