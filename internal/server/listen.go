package server

import (
	"net"
	"net/http"
	"time"
)

// StartHTTP binds addr — which may end in ":0" to pick a free port —
// and serves h on it in a background goroutine. It returns the
// http.Server (for Shutdown), the concrete bound address (host:port),
// and a channel that receives the terminal Serve error. Both cmd/simd
// and in-process cluster tests use it so nothing races for fixed
// ports.
func StartHTTP(addr string, h http.Handler) (*http.Server, string, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, err
	}
	srv, errCh := Serve(ln, h)
	return srv, ln.Addr().String(), errCh, nil
}

// Serve serves h on an already bound listener in a background
// goroutine; callers that must know their address before building h
// (a worker naming its job IDs) bind first and call this after. The
// channel receives the terminal Serve error.
func Serve(ln net.Listener, h http.Handler) (*http.Server, <-chan error) {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	// Bounded: Serve returns on srv.Shutdown/Close and the terminal error
	// parks in the buffered errCh.
	go func() { errCh <- srv.Serve(ln) }()
	return srv, errCh
}
