package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// localDialer is a RegistryConfig.Dial for tests: "dials" an in-process
// backend by name instead of a real worker, so registry logic is exercised
// without sockets or real clocks.
func localDialer(seed int64) func(addr string) (Backend, error) {
	return func(addr string) (Backend, error) {
		return NewLocalBackend(testModel(seed), addr), nil
	}
}

func TestRegistryJoinLeaveExpire(t *testing.T) {
	// The registry lifecycle against a fake clock: join grows the shard,
	// leave shrinks it, and a member that misses its heartbeat deadline is
	// expired by Sweep — with every transition counted for /stats.
	var clock atomic.Int64
	now := func() time.Time { return time.Unix(0, clock.Load()) }

	s := NewDynamicShard(ShardConfig{})
	s.now = now
	reg := NewRegistry(s, RegistryConfig{TTL: 5 * time.Second, Dial: localDialer(500)})
	reg.now = now

	if err := reg.Register("worker-a"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("worker-b"); err != nil {
		t.Fatal(err)
	}
	if got := s.Replicas(); got != 2 {
		t.Fatalf("shard has %d backends after two joins, want 2", got)
	}
	single := testModel(500)
	xs := shardProbes(32)
	got, err := s.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
			t.Fatalf("item %d: %v != %v", i, got[i], want)
		}
	}

	// worker-a keeps beating; worker-b goes silent past the TTL.
	clock.Store(int64(4 * time.Second))
	if err := reg.Heartbeat("worker-a"); err != nil {
		t.Fatal(err)
	}
	if expired := reg.Sweep(); len(expired) != 0 {
		t.Fatalf("sweep expired %v before any deadline passed", expired)
	}
	clock.Store(int64(6 * time.Second))
	expired := reg.Sweep()
	if len(expired) != 1 || expired[0] != "worker-b" {
		t.Fatalf("sweep expired %v, want [worker-b]", expired)
	}
	if got := s.Replicas(); got != 1 {
		t.Fatalf("shard has %d backends after expiry, want 1", got)
	}

	// The survivor still answers bit-identically.
	got, err = s.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := single.Predict(x); !got[i].EqualApprox(want, 0) {
			t.Fatalf("post-expiry item %d: %v != %v", i, got[i], want)
		}
	}

	// Voluntary leave empties the fleet; an unknown heartbeat errors so the
	// HTTP layer can 404 it into a re-register.
	if !reg.Leave("worker-a") {
		t.Fatal("leave of a live member reported not-registered")
	}
	if reg.Leave("worker-a") {
		t.Fatal("second leave reported registered")
	}
	if err := reg.Heartbeat("worker-b"); err == nil {
		t.Fatal("heartbeat from an expired member accepted")
	}
	st := reg.Status()
	if st.Joins != 2 || st.Leaves != 1 || st.Expiries != 1 || len(st.Members) != 0 {
		t.Fatalf("status = %+v, want joins=2 leaves=1 expiries=1 members=0", st)
	}
}

func TestRegistryReRegisterReplacesMember(t *testing.T) {
	// A restarted worker re-registering under its old address must replace
	// the stale backend, not duplicate it.
	s := NewDynamicShard(ShardConfig{})
	reg := NewRegistry(s, RegistryConfig{Dial: localDialer(501)})
	for i := 0; i < 3; i++ {
		if err := reg.Register("worker-a"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Replicas(); got != 1 {
		t.Fatalf("shard has %d backends after re-registrations, want 1", got)
	}
	if st := reg.Status(); st.Joins != 3 || len(st.Members) != 1 {
		t.Fatalf("status = %+v, want joins=3 members=1", st)
	}
}

func TestRegistryRejectsShapeMismatch(t *testing.T) {
	s := NewDynamicShard(ShardConfig{})
	reg := NewRegistry(s, RegistryConfig{Dial: func(addr string) (Backend, error) {
		if addr == "odd-one" {
			return NewLocalBackend(benchShardModel(502), addr), nil
		}
		return NewLocalBackend(testModel(502), addr), nil
	}})
	if err := reg.Register("worker-a"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("odd-one"); err == nil {
		t.Fatal("shape-mismatched worker accepted")
	}
	if st := reg.Status(); st.Joins != 1 || len(st.Members) != 1 {
		t.Fatalf("status = %+v after rejected join, want joins=1 members=1", st)
	}
}

func postControl(t *testing.T, url, path, addr string) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]string{"addr": addr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+PathPrefix+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRegistryOverHTTPWithStats(t *testing.T) {
	// The wire protocol end to end: a worker plmserve instance joins a
	// fleet router over real HTTP, traffic routes through it, /stats grows
	// the registry section, and /leave drains it back out.
	workerModel := testModel(503)
	worker := httptest.NewServer(NewServer(workerModel, "worker"))
	defer worker.Close()

	s := NewDynamicShard(ShardConfig{})
	reg := NewRegistry(s, RegistryConfig{TTL: time.Minute})
	srv := NewServer(s, "router")
	reg.Mount(srv)
	router := httptest.NewServer(srv)
	defer router.Close()

	// Heartbeat before registering: 404 tells the worker to register.
	resp := postControl(t, router.URL, "/heartbeat", worker.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unregistered heartbeat answered %s, want 404", resp.Status)
	}

	resp = postControl(t, router.URL, "/register", worker.URL)
	var lease struct {
		TTLMillis      int64 `json:"ttl_ms"`
		IntervalMillis int64 `json:"interval_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register answered %s", resp.Status)
	}
	if lease.TTLMillis != 60_000 || lease.IntervalMillis != 20_000 {
		t.Fatalf("lease = %+v, want ttl 60000ms interval 20000ms", lease)
	}

	// The router now routes to the worker — bit-identically.
	c, err := Dial(router.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	xs := shardProbes(8)
	got, err := c.PredictBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if want := workerModel.Predict(x); !got[i].EqualApprox(want, 0) {
			t.Fatalf("item %d: %v != %v", i, got[i], want)
		}
	}

	resp = postControl(t, router.URL, "/heartbeat", worker.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registered heartbeat answered %s", resp.Status)
	}

	statsResp, err := http.Get(router.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Registry *RegistryStatus `json:"registry"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Registry == nil {
		t.Fatal("/stats has no registry section on a fleet router")
	}
	if stats.Registry.Joins != 1 || len(stats.Registry.Members) != 1 ||
		stats.Registry.Members[0].Addr != worker.URL {
		t.Fatalf("registry section = %+v, want 1 join, 1 member at %s", stats.Registry, worker.URL)
	}

	resp = postControl(t, router.URL, "/leave", worker.URL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave answered %s", resp.Status)
	}
	if s.Replicas() != 0 {
		t.Fatalf("shard still has %d backends after leave", s.Replicas())
	}
}

func TestRegistryRegisterUnreachableWorkerAnswers502(t *testing.T) {
	s := NewDynamicShard(ShardConfig{})
	reg := NewRegistry(s, RegistryConfig{})
	srv := NewServer(s, "router")
	reg.Mount(srv)
	router := httptest.NewServer(srv)
	defer router.Close()

	resp := postControl(t, router.URL, "/register", "http://127.0.0.1:1")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("unreachable worker register answered %s, want 502", resp.Status)
	}
	resp = postControl(t, router.URL, "/register", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty addr register answered %s, want 400", resp.Status)
	}
}

func TestFleetSessionRegistersHeartbeatsAndRecovers(t *testing.T) {
	// The worker-side loop end to end on short real timers: the session
	// registers, heartbeats, survives having its lease revoked (404 →
	// re-register), and leaves on context cancellation.
	worker := httptest.NewServer(NewServer(testModel(504), "worker"))
	defer worker.Close()

	s := NewDynamicShard(ShardConfig{})
	reg := NewRegistry(s, RegistryConfig{TTL: 300 * time.Millisecond})
	srv := NewServer(s, "router")
	reg.Mount(srv)
	router := httptest.NewServer(srv)
	defer router.Close()

	ctx, cancel := context.WithCancel(context.Background())
	sess := &FleetSession{Router: router.URL, Advertise: worker.URL}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = sess.Run(ctx)
	}()

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (registry: %+v)", desc, reg.Status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("initial registration", func() bool { return reg.Status().Joins >= 1 })
	waitFor("a heartbeat", func() bool {
		st := reg.Status()
		return len(st.Members) == 1 && st.Members[0].SinceBeatMillis < 200
	})

	// Revoke the lease behind the session's back — as an expiry would —
	// and watch it re-register on the next 404ed heartbeat.
	s.RemoveBackend(worker.URL)
	reg.mu.Lock()
	delete(reg.members, worker.URL)
	reg.mu.Unlock()
	waitFor("re-registration", func() bool { return reg.Status().Joins >= 2 })
	waitFor("shard membership restored", func() bool { return s.Replicas() == 1 })

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("session did not exit on context cancellation")
	}
	if st := reg.Status(); st.Leaves != 1 || len(st.Members) != 0 {
		t.Fatalf("after shutdown: %+v, want 1 leave and no members", st)
	}
}
