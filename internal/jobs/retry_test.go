package jobs

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/plm"
)

func TestRetryAfterTracksMeanJobDuration(t *testing.T) {
	r, err := NewRunner(jobModel(40), nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A runner that has completed nothing still promises a sane floor.
	if got := r.RetryAfter(); got != time.Second {
		t.Fatalf("fresh RetryAfter = %v, want 1s floor", got)
	}
	// One slow job sets the mean; the hint rounds it up to whole seconds.
	r.observeRun(2500 * time.Millisecond)
	if got := r.RetryAfter(); got != 3*time.Second {
		t.Fatalf("RetryAfter after one 2.5s job = %v, want 3s", got)
	}
	// A burst of fast jobs pulls the recency-weighted mean back down.
	for i := 0; i < 40; i++ {
		r.observeRun(10 * time.Millisecond)
	}
	if got := r.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter after fast burst = %v, want 1s floor", got)
	}
}

// gateModel blocks every prediction on a gate so a job can be pinned in
// the running state, saturating a capacity-1 store on demand.
type gateModel struct {
	plm.Model
	gate chan struct{}
}

func (m *gateModel) Predict(x mat.Vec) mat.Vec { <-m.gate; return m.Model.Predict(x) }

func TestSubmitBacklogFullAnswers503WithRetryAfter(t *testing.T) {
	// A store holding only unfinished work refuses the submit with 503 and
	// names its drain-time hint in the standard Retry-After header.
	model := jobModel(41)
	gated := &gateModel{Model: model, gate: make(chan struct{})}
	r, err := NewRunner(gated, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(model, "gated")
	r.Mount(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer close(gated.gate)

	xs := jobProbes(rand.New(rand.NewSource(41)), 2, model.Dim())
	if _, err := r.Submit(OpPredict, xs); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(submitRequest{Op: OpPredict, Xs: [][]float64{xs[0], xs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit answered %s, want 503", resp.Status)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q (fresh runner's 1s floor)", got, "1")
	}
}

func TestSubmitCtxHonorsRetryAfter(t *testing.T) {
	// The client side of the backpressure loop: two 503s with Retry-After
	// hints, then an acceptance. SubmitCtx must wait out both hints (here
	// observed through the test seam, not served in real time) and land the
	// job on the third attempt.
	var posts atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meta", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"name": "scripted", "dim": 6, "classes": 3})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		if posts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "backlog full", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(View{ID: "job-9", Op: OpPredict, Status: StatusQueued, N: 1})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var waits []time.Duration
	origSleep := retrySleep
	retrySleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return ctx.Err()
	}
	defer func() { retrySleep = origSleep }()

	c, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := SubmitCtx(context.Background(), c, OpPredict, jobProbes(rand.New(rand.NewSource(42)), 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-9" {
		t.Fatalf("ack = %+v, want job-9", v)
	}
	if posts.Load() != 3 {
		t.Fatalf("server saw %d submits, want 3", posts.Load())
	}
	if len(waits) != 2 || waits[0] != 2*time.Second || waits[1] != 2*time.Second {
		t.Fatalf("client waited %v, want two 2s Retry-After intervals", waits)
	}
}

func TestSubmitCtxBoundsRetriesAndHonorsCancellation(t *testing.T) {
	// A server that never stops shedding: SubmitCtx gives up after its
	// bounded retries instead of looping, and a cancelled context aborts
	// the wait immediately.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meta", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"name": "shedding", "dim": 6, "classes": 3})
	})
	var posts atomic.Int64
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		posts.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "backlog full", http.StatusServiceUnavailable)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	origSleep := retrySleep
	retrySleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	defer func() { retrySleep = origSleep }()

	c, err := api.Dial(ts.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SubmitCtx(context.Background(), c, OpPredict, jobProbes(rand.New(rand.NewSource(42)), 1, 6)); err == nil {
		t.Fatal("endlessly shedding server did not surface an error")
	}
	if got := posts.Load(); got != int64(submitRetries)+1 {
		t.Fatalf("server saw %d submits, want %d (1 + %d retries)", got, submitRetries+1, submitRetries)
	}

	// Cancellation: the first wait aborts with the context's error.
	posts.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SubmitCtx(ctx, c, OpPredict, jobProbes(rand.New(rand.NewSource(42)), 1, 6)); err == nil {
		t.Fatal("cancelled submit retry reported success")
	}
	if got := posts.Load(); got > 1 {
		t.Fatalf("cancelled context still produced %d submits", got)
	}
}
