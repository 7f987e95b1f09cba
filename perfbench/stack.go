package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/plm"
)

// loopback is an api.Server on a loopback port, served by net/http the way
// cmd/plmserve serves it, with a dialed client that speaks the binary codec
// the server advertises.
type loopback struct {
	srv    *api.Server
	http   *http.Server
	served chan error
	client *api.Client
	// transport counts the client's HTTP requests (the round trips a user
	// pays for), from zero after Dial's /meta fetch.
	transport *countingTransport
}

// startLoopback serves model as name. mount attaches extra endpoints (the
// job runner) before the first request. With a tracer, request headers
// carry the client's span to the server's model decorators.
func startLoopback(model plm.Model, name string, mount func(*api.Server), tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := api.NewServer(model, name)
	if mount != nil {
		mount(srv)
	}
	var h http.Handler = srv
	if tr != nil {
		h = spanHandler(h)
	}
	lb := &loopback{
		srv:    srv,
		http:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
	}
	go func() { lb.served <- lb.http.Serve(ln) }()

	// The transport mirrors the keep-alive pool api.Dial builds for itself.
	lb.transport = &countingTransport{base: &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}}
	var rt http.RoundTripper = lb.transport
	if tr != nil {
		rt = spanTransport{base: rt}
	}
	client, err := api.Dial("http://"+ln.Addr().String(), &http.Client{Timeout: 30 * time.Second, Transport: rt}, 0)
	if err != nil {
		lb.close()
		return nil, err
	}
	lb.client = client
	lb.transport.requests.Store(0)
	return lb, nil
}

// close stops the server and waits for its serve loop to return.
func (lb *loopback) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := lb.http.Shutdown(ctx)
	if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if lb.transport != nil {
		lb.transport.base.(*http.Transport).CloseIdleConnections()
	}
	return err
}

// countingTransport counts the HTTP requests a client sends.
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	return t.base.RoundTrip(r)
}
