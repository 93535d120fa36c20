package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// The tests in this file check the fleet's concurrency conventions
// (docs/ANALYSIS.md) by their effects: a response body left open costs
// a connection per call, a map ranged into output changes the bytes
// between scrapes, and an untracked spawn outlives the call that should
// join it.

// TestClientSitesReuseConnections calls every HTTP client site of the
// fleet 30 times against one test listener and counts the connections
// it accepts. A site that neither drains nor closes a response body
// pins that connection, so its next call dials a new one.
func TestClientSitesReuseConnections(t *testing.T) {
	hitKey, _ := store.Key("conns-hit")
	missKey, _ := store.Key("conns-miss")
	payload := []byte(`{"rows":[]}`)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/members", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, MembersReply{Members: []string{"http://w0.test"}})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		writeJSON(w, http.StatusOK, map[string]string{"status": "done"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, server.Stats{})
	})
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("key") != hitKey {
			writeError(w, http.StatusNotFound, fmt.Errorf("not cached"))
			return
		}
		w.Write(payload)
	})
	// As a worker does: 204 with no body for a JSON payload, 400 with
	// an error body otherwise. Only the second leaves a body to close.
	mux.HandleFunc("PUT /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		if _, err := store.Payload(data); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	c := startCoordinator(t, []string{ts.URL}, client)
	ring, err := NewRing([]string{ts.URL}, 16)
	if err != nil {
		t.Fatal(err)
	}
	pf := NewPeerFiller("http://self.test", ring, 0, time.Second, client)
	rep := NewReplicator("http://self.test", ring, 2, time.Second, client)
	ctx := context.Background()
	members := []byte(`{"action":"set","nodes":["http://w0.test"]}`)

	const calls = 30
	sites := []struct {
		name string
		call func(i int) error
	}{
		{"Coordinator.postMembers", func(int) error { return c.postMembers(ts.URL, members) }},
		{"Coordinator.probe", func(int) error {
			if !c.probe(ts.URL) {
				return fmt.Errorf("probe failed")
			}
			return nil
		}},
		{"Coordinator.tryNode", func(int) error {
			r := c.tryNode(ctx, ts.URL, "/v1/runs", []byte(`{}`))
			if r.err == nil && r.status != http.StatusOK {
				return fmt.Errorf("http %d", r.status)
			}
			return r.err
		}},
		{"Coordinator.nodeStats", func(int) error {
			_, err := c.nodeStats(ctx, ts.URL)
			return err
		}},
		{"PeerFiller.fetch (hit)", func(int) error {
			if _, ok := pf.fetch(ctx, ts.URL, hitKey); !ok {
				return fmt.Errorf("cached key not filled")
			}
			return nil
		}},
		{"PeerFiller.fetch (404)", func(int) error {
			if _, ok := pf.fetch(ctx, ts.URL, missKey); ok {
				return fmt.Errorf("uncached key filled")
			}
			return nil
		}},
		{"Replicator.push", func(i int) error {
			data, want := payload, true
			if i%2 == 1 {
				data, want = []byte("not json"), false
			}
			if got := rep.push(ctx, ts.URL, hitKey, data); got != want {
				return fmt.Errorf("push landed=%v, want %v", got, want)
			}
			return nil
		}},
	}
	for _, site := range sites {
		tr.CloseIdleConnections() // every site starts without a pooled connection
		before := conns.Load()
		for i := 0; i < calls; i++ {
			if err := site.call(i); err != nil {
				t.Fatalf("%s call %d: %v", site.name, i, err)
			}
		}
		n := conns.Load() - before
		t.Logf("%s: %d new connections for %d calls", site.name, n, calls)
		if n > 2 {
			t.Errorf("%s opened %d connections for %d calls, want at most 2: a response body is left open", site.name, n, calls)
		}
	}
}

// TestScrapesAreByteStable scrapes the workers' and the coordinator's
// text and JSON surfaces repeatedly with nothing changing in between:
// every scrape must return the same bytes. The sweep run first leaves
// several stall causes nonzero and the cache holds several keys, so an
// unsorted map range anywhere on these paths shows as reordered lines.
// A two-entry map comes out reordered on only about one range in
// eight, hence the 100 scrapes.
func TestScrapesAreByteStable(t *testing.T) {
	workers, c := startFleet(t, 2, nil)
	if r := submitVia(t, c.Handler(), testSpec(1), ""); r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("sweep: %+v", r)
	}
	for i := 0; i < 8; i++ {
		key, _ := store.Key(fmt.Sprintf("scrape-%d", i))
		for _, w := range workers {
			rec := httptest.NewRecorder()
			w.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/cache/"+key, bytes.NewReader([]byte(`{"i":1}`))))
			if rec.Code != http.StatusNoContent {
				t.Fatalf("cache put: %d %s", rec.Code, rec.Body)
			}
		}
	}
	stalled := 0
	for _, w := range workers {
		nonzero := 0
		for _, n := range w.srv.Stats().StallCycles {
			if n > 0 {
				nonzero++
			}
		}
		stalled = max(stalled, nonzero)
	}
	if stalled < 2 {
		t.Fatalf("the sweep left %d stall causes nonzero, want at least 2", stalled)
	}

	type surface struct {
		name string
		h    http.Handler
		path string
	}
	surfaces := []surface{
		{"coordinator", c.Handler(), "/metrics"},
		{"coordinator", c.Handler(), "/v1/members"},
	}
	for i, w := range workers {
		name := fmt.Sprintf("worker %d", i)
		surfaces = append(surfaces, surface{name, w.srv.Handler(), "/metrics"}, surface{name, w.srv.Handler(), "/v1/cache"})
	}
	for _, s := range surfaces {
		var first []byte
		for i := 0; i < 100; i++ {
			rec := httptest.NewRecorder()
			s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: http %d", s.name, s.path, rec.Code)
			}
			if i == 0 {
				first = rec.Body.Bytes()
				continue
			}
			if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Fatalf("%s %s: scrape %d differs from the first:\n%s\nfirst:\n%s", s.name, s.path, i, rec.Body.Bytes(), first)
			}
		}
	}
}

// TestCloseJoinsInFlightProbe closes a coordinator while a health probe
// is in flight: the probe answers after 20 ms, and no probe may still be
// running when Close returns. An idle Close proves nothing here, since
// an untracked prober then has nothing left to run.
func TestCloseJoinsInFlightProbe(t *testing.T) {
	entered := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			select {
			case entered <- struct{}{}:
			default:
			}
			time.Sleep(20 * time.Millisecond)
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	var active atomic.Int64
	client := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		active.Add(1)
		defer active.Add(-1)
		return tr.RoundTrip(req)
	})}

	for trial := 0; trial < 5; trial++ {
		select {
		case <-entered: // a stale signal from the previous trial
		default:
		}
		c, err := NewCoordinator(CoordinatorConfig{
			Peers:          []string{ts.URL},
			HealthInterval: time.Millisecond,
			HealthTimeout:  10 * time.Second,
			Client:         client,
			Logf:           func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			c.Close()
			t.Fatal("no health probe reached the node")
		}
		c.Close()
		if n := active.Load(); n != 0 {
			t.Fatalf("trial %d: Close returned with %d probe(s) in flight", trial, n)
		}
	}
}
