package api

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// The fleet registry turns the shard router into a control plane: workers
// announce themselves instead of being listed at boot, and silence is
// treated as death.
//
//	POST /register   {"addr":"http://host:port"} -> {"ttl_ms":T,"interval_ms":I}
//	POST /heartbeat  {"addr":"http://host:port"} -> {} (404: unknown, re-register)
//	POST /leave      {"addr":"http://host:port"} -> {}
//
// Registration dials the worker back (its /meta must answer and match the
// shard's model shape) and joins it as a remote backend; the response tells
// the worker how often to heartbeat (interval = TTL/3, so a member survives
// two lost beats). A member whose last beat is older than the TTL is
// expired: removed from the shard, its in-flight chunks cancelled and
// drained back onto the shared pull queue for the survivors. /stats grows a
// "registry" section counting joins, leaves and expiries so the fleet's
// churn is observable next to the per-backend counters.
//
// The control payloads ride the wire package's JSON envelopes — metadata
// always speaks JSON, exactly like /meta and /stats; the binary float-frame
// codec stays a payload optimization.
type Registry struct {
	shard *Shard
	cfg   RegistryConfig
	// now is the clock, swappable in tests (Sweep is driven manually there).
	now func() time.Time

	mu      sync.Mutex
	members map[string]*fleetMember
	// order lists member addresses in registration order — the iteration
	// spine, so snapshots and sweeps never depend on map order.
	order []string

	joins    atomic.Int64
	leaves   atomic.Int64
	expiries atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
}

// RegistryConfig tunes the registry. The zero value gives sensible defaults.
type RegistryConfig struct {
	// TTL is how long a member may stay silent before it is expired
	// (default 5s). The advertised heartbeat interval is TTL/3.
	TTL time.Duration
	// Dial turns a registering worker's advertised address into a Backend.
	// The default dials the address and wraps it as a remote backend; tests
	// substitute in-process fakes.
	Dial func(addr string) (Backend, error)
}

// fleetMember is the registry's record of one registered worker.
type fleetMember struct {
	addr     string
	joined   time.Time
	lastBeat time.Time
}

// RegistryStatus is the /stats registry section.
type RegistryStatus struct {
	// TTLMillis is the missed-heartbeat deadline members live under.
	TTLMillis int64 `json:"ttl_ms"`
	// Joins counts successful registrations (re-registrations included).
	Joins int64 `json:"joins"`
	// Leaves counts voluntary departures via /leave.
	Leaves int64 `json:"leaves"`
	// Expiries counts members removed for missing their heartbeat deadline.
	Expiries int64 `json:"expiries"`
	// Members lists the live fleet, stably ordered by address.
	Members []RegistryMember `json:"members"`
}

// RegistryMember is one live worker in the /stats registry section.
type RegistryMember struct {
	Addr string `json:"addr"`
	// SinceBeatMillis is how long ago the member last checked in.
	SinceBeatMillis int64 `json:"since_beat_ms"`
}

// registerRequest is the body of /register, /heartbeat and /leave alike:
// the worker's advertised base URL is the member key.
type registerRequest struct {
	Addr string `json:"addr"`
}

// registerResponse tells a registered worker its lease terms. Atlas
// advertises that the router serves a region-atlas snapshot at
// /v1/atlas/snapshot, so a joining worker can pull a warm store instead of
// starting cold — the snapshot-on-join handshake.
type registerResponse struct {
	TTLMillis      int64 `json:"ttl_ms"`
	IntervalMillis int64 `json:"interval_ms"`
	Atlas          bool  `json:"atlas,omitempty"`
}

// NewRegistry builds a registry controlling the given shard's membership.
func NewRegistry(shard *Shard, cfg RegistryConfig) *Registry {
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (Backend, error) {
			client, err := Dial(addr, nil, 1)
			if err != nil {
				return nil, err
			}
			return NewRemoteBackend(client), nil
		}
	}
	return &Registry{
		shard:   shard,
		cfg:     cfg,
		now:     time.Now,
		members: make(map[string]*fleetMember),
		stop:    make(chan struct{}),
	}
}

// TTL returns the missed-heartbeat deadline members live under.
func (r *Registry) TTL() time.Duration { return r.cfg.TTL }

// Interval returns the heartbeat interval the registry advertises to
// workers: a third of the TTL, so a member survives two lost beats.
func (r *Registry) Interval() time.Duration { return r.cfg.TTL / 3 }

// Status snapshots the registry for the /stats report.
func (r *Registry) Status() RegistryStatus {
	members := r.snapshotMembers(r.now())
	sort.Slice(members, func(i, j int) bool { return members[i].Addr < members[j].Addr })
	return RegistryStatus{
		TTLMillis: r.cfg.TTL.Milliseconds(),
		Joins:     r.joins.Load(),
		Leaves:    r.leaves.Load(),
		Expiries:  r.expiries.Load(),
		Members:   members,
	}
}

// snapshotMembers copies the live member list in registration order.
func (r *Registry) snapshotMembers(now time.Time) []RegistryMember {
	r.mu.Lock()
	defer r.mu.Unlock()
	members := make([]RegistryMember, 0, len(r.order))
	for _, addr := range r.order {
		m, ok := r.members[addr]
		if !ok {
			continue
		}
		members = append(members, RegistryMember{
			Addr:            m.addr,
			SinceBeatMillis: now.Sub(m.lastBeat).Milliseconds(),
		})
	}
	return members
}

// Register joins a worker: dial its advertised address, validate it against
// the shard's model shape, and start its heartbeat lease. A worker already
// registered under the same address is replaced — the restarted-worker
// path — and counts as a fresh join.
func (r *Registry) Register(addr string) error {
	if addr == "" {
		return fmt.Errorf("api: register: empty addr")
	}
	// Dialing is a round trip to the worker; never hold the member lock (or
	// the shard's) across it.
	b, err := r.cfg.Dial(addr)
	if err != nil {
		return fmt.Errorf("api: register %s: %w", addr, err)
	}
	if err := r.shard.AddBackend(b); err != nil {
		return fmt.Errorf("api: register %s: %w", addr, err)
	}
	r.admit(addr, r.now())
	r.joins.Add(1)
	return nil
}

// admit records (or refreshes) a member under the lock.
func (r *Registry) admit(addr string, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, known := r.members[addr]; !known {
		r.order = append(r.order, addr)
	}
	r.members[addr] = &fleetMember{addr: addr, joined: now, lastBeat: now}
}

// dropOrderLocked removes addr from the registration-order spine; callers
// hold r.mu.
func (r *Registry) dropOrderLocked(addr string) {
	for i, a := range r.order {
		if a == addr {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// Heartbeat renews a member's lease. Unknown members report an error so the
// HTTP handler can answer 404 and the worker knows to re-register — the
// recovery path after an expiry or a router restart.
func (r *Registry) Heartbeat(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[addr]
	if !ok {
		return fmt.Errorf("api: heartbeat from unregistered %s", addr)
	}
	m.lastBeat = r.now()
	return nil
}

// Leave removes a member voluntarily. Reports whether it was registered.
func (r *Registry) Leave(addr string) bool {
	if !r.evict(addr) {
		return false
	}
	r.leaves.Add(1)
	r.shard.RemoveBackend(addr)
	return true
}

// evict deletes a member record under the lock, reporting whether it
// existed.
func (r *Registry) evict(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[addr]; !ok {
		return false
	}
	delete(r.members, addr)
	r.dropOrderLocked(addr)
	return true
}

// Sweep expires every member whose last heartbeat is older than the TTL,
// removing it from the shard (which cancels its in-flight chunks and drains
// them back to the queue). Returns the expired addresses. Start drives it
// on a ticker; fake-clock tests call it directly.
func (r *Registry) Sweep() []string {
	expired := r.expire(r.now())
	sort.Strings(expired)
	for _, addr := range expired {
		r.expiries.Add(1)
		r.shard.RemoveBackend(addr)
	}
	return expired
}

// expire deletes every member past its heartbeat deadline under the lock,
// walking the registration-order spine, and returns their addresses.
func (r *Registry) expire(now time.Time) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var expired, keep []string
	for _, addr := range r.order {
		m, ok := r.members[addr]
		if !ok {
			continue // record already gone; drop the stale spine entry too
		}
		if now.Sub(m.lastBeat) > r.cfg.TTL {
			expired = append(expired, addr)
			delete(r.members, addr)
			continue
		}
		keep = append(keep, addr)
	}
	r.order = keep
	return expired
}

// Start sweeps for expired members every TTL/4 until Stop. The divisor
// keeps expiry latency well under one TTL past the deadline.
func (r *Registry) Start() {
	ticker := time.NewTicker(r.cfg.TTL / 4)
	go func() {
		defer ticker.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-ticker.C:
				r.Sweep()
			}
		}
	}()
}

// Stop ends the sweep loop. Safe to call more than once.
func (r *Registry) Stop() { r.stopOnce.Do(func() { close(r.stop) }) }

// decodeControl reads one control envelope, answering the error itself.
func decodeControl(w http.ResponseWriter, req *http.Request) (registerRequest, bool) {
	var body registerRequest
	if err := wire.DecodeJSON(req.Body, clientMaxBody, &body, true); err != nil {
		wire.WriteError(w, wire.DecodeStatus(err), err)
		return body, false
	}
	if body.Addr == "" {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("api: missing addr"))
		return body, false
	}
	return body, true
}

// Mount attaches the registry's control endpoints to a server and hooks its
// section into the /stats report.
func (r *Registry) Mount(srv *Server) {
	srv.Handle("POST /register", func(w http.ResponseWriter, req *http.Request) {
		body, ok := decodeControl(w, req)
		if !ok {
			return
		}
		if err := r.Register(body.Addr); err != nil {
			// The worker's fault or the worker's outage either way: it can
			// retry, so answer 502 (we could not reach/validate it), not 500.
			wire.WriteError(w, http.StatusBadGateway, err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, registerResponse{
			TTLMillis:      r.cfg.TTL.Milliseconds(),
			IntervalMillis: r.Interval().Milliseconds(),
			// Late-bound on purpose: the atlas may be wired after Mount.
			Atlas: srv.atlasStatus != nil,
		})
	})
	srv.Handle("POST /heartbeat", func(w http.ResponseWriter, req *http.Request) {
		body, ok := decodeControl(w, req)
		if !ok {
			return
		}
		if err := r.Heartbeat(body.Addr); err != nil {
			wire.WriteError(w, http.StatusNotFound, err)
			return
		}
		wire.WriteJSON(w, http.StatusOK, struct{}{})
	})
	srv.Handle("POST /leave", func(w http.ResponseWriter, req *http.Request) {
		body, ok := decodeControl(w, req)
		if !ok {
			return
		}
		r.Leave(body.Addr)
		wire.WriteJSON(w, http.StatusOK, struct{}{})
	})
	srv.statsExtras = append(srv.statsExtras, func(resp *statsResponse) {
		status := r.Status()
		resp.Registry = &status
	})
}

// FleetSession is the worker half of the registry protocol: register with
// the router, heartbeat at the advertised interval, re-register when the
// router forgets us (404 — we expired, or it restarted), and leave cleanly
// on shutdown. plmserve runs one per -join flag.
type FleetSession struct {
	// Router is the router's base URL (http://host:port).
	Router string
	// Advertise is this worker's own base URL, as the router should dial it.
	Advertise string
	// HTTPClient overrides the default client (30s timeout, shared keep-alive
	// transport).
	HTTPClient *http.Client
	// Logf, when set, receives session transitions (registered, lost lease,
	// leave) — plmserve points it at its logger.
	Logf func(format string, args ...any)
	// OnAtlas, when set, runs after every successful registration whose
	// lease advertises a router-side region atlas — the worker's chance to
	// pull a warm snapshot (GET router/v1/atlas/snapshot → atlas.Ingest).
	// Called synchronously, so keep it bounded; ingestion dedups by key,
	// making repeat pulls after re-registration idempotent.
	OnAtlas func(ctx context.Context)
}

func (fs *FleetSession) client() *http.Client {
	if fs.HTTPClient != nil {
		return fs.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport}
}

func (fs *FleetSession) logf(format string, args ...any) {
	if fs.Logf != nil {
		fs.Logf(format, args...)
	}
}

// post ships one control envelope to the router's path (relative to
// PathPrefix) and decodes the response when out != nil.
func (fs *FleetSession) post(ctx context.Context, path string, out any) (int, error) {
	var buf bytes.Buffer
	if err := wire.EncodeJSON(&buf, registerRequest{Addr: fs.Advertise}); err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, fs.Router+PathPrefix+path, &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentTypeJSON)
	resp, err := fs.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("api: %s returned %s", path, resp.Status)
	}
	if out != nil {
		if err := wire.DecodeJSON(resp.Body, clientMaxBody, out, false); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// register joins the fleet and returns the router's heartbeat interval.
func (fs *FleetSession) register(ctx context.Context) (time.Duration, error) {
	var lease registerResponse
	if _, err := fs.post(ctx, "/register", &lease); err != nil {
		return 0, err
	}
	interval := time.Duration(lease.IntervalMillis) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	fs.logf("joined fleet at %s (heartbeat every %v)", fs.Router, interval)
	if lease.Atlas && fs.OnAtlas != nil {
		fs.OnAtlas(ctx)
	}
	return interval, nil
}

// Run registers and heartbeats until ctx ends, then leaves. Registration
// failures (the router may not be up yet) and lost beats retry on a steady
// cadence rather than giving up: a worker's job is to keep trying to be
// part of the fleet. Returns ctx's error on shutdown.
func (fs *FleetSession) Run(ctx context.Context) error {
	const retry = time.Second
	interval, err := fs.register(ctx)
	for err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		fs.logf("register with %s failed (will retry): %v", fs.Router, err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retry):
		}
		interval, err = fs.register(ctx)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Best-effort goodbye on a fresh short-lived context — ctx is
			// already dead and must not cancel the leave itself.
			lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = fs.post(lctx, "/leave", nil)
			cancel()
			fs.logf("left fleet at %s", fs.Router)
			return ctx.Err()
		case <-ticker.C:
			status, err := fs.post(ctx, "/heartbeat", nil)
			if err == nil {
				continue
			}
			if status == http.StatusNotFound {
				// The router forgot us — we expired or it restarted. Rejoin
				// and adopt the (possibly changed) lease terms.
				fs.logf("lease lost at %s, re-registering", fs.Router)
				if next, rerr := fs.register(ctx); rerr == nil {
					ticker.Reset(next)
				}
				continue
			}
			if ctx.Err() == nil {
				fs.logf("heartbeat to %s failed: %v", fs.Router, err)
			}
		}
	}
}
