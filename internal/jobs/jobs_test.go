package jobs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

func jobModel(seed int64) *openbox.PLNN {
	return &openbox.PLNN{Net: nn.New(rand.New(rand.NewSource(seed)), 6, 10, 3)}
}

func jobProbes(rng *rand.Rand, n, dim int) []mat.Vec {
	xs := make([]mat.Vec, n)
	for i := range xs {
		xs[i] = make(mat.Vec, dim)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
	}
	return xs
}

// waitDone polls until the job leaves the queue/run states.
func waitDone(t *testing.T, r *Runner, id string) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := r.Get(id)
		if !ok {
			t.Fatalf("job %s vanished mid-run", id)
		}
		if v.Status == StatusDone || v.Status == StatusFailed {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return View{}
}

func TestPredictJobLifecycle(t *testing.T) {
	model := jobModel(1)
	r, err := NewRunner(model, model, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	xs := jobProbes(rand.New(rand.NewSource(2)), 12, model.Dim())
	id, err := r.Submit(OpPredict, xs)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, r, id)
	if v.Status != StatusDone || v.Error != "" {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if len(v.Probs) != len(xs) {
		t.Fatalf("%d results for %d probes", len(v.Probs), len(xs))
	}
	for i, x := range xs {
		if want := model.Predict(x); !mat.Vec(v.Probs[i]).EqualApprox(want, 0) {
			t.Fatalf("item %d: %v != %v", i, v.Probs[i], want)
		}
	}
}

func TestInterpretJobHarvestsExactRegions(t *testing.T) {
	// An interpret job returns the closed-form region classifiers: the
	// relative logits at each probe must reproduce the model's own
	// probabilities up to the one rounding the class-0 rebasing introduces
	// (softmax shift invariance is exact in real arithmetic).
	model := jobModel(3)
	r, err := NewRunner(model, model, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	xs := jobProbes(rand.New(rand.NewSource(4)), 20, model.Dim())
	id, err := r.Submit(OpInterpret, xs)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, r, id)
	if v.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if len(v.Regions) == 0 || len(v.Regions) > len(xs) {
		t.Fatalf("%d regions from %d probes", len(v.Regions), len(xs))
	}
	for ri, reg := range v.Regions {
		probe := mat.Vec(reg.Probe)
		logits := make(mat.Vec, len(reg.RelW))
		for c := 1; c < len(reg.RelW); c++ {
			logits[c] = mat.Vec(reg.RelW[c]).Dot(probe) + reg.RelB[c]
		}
		if got, want := nn.Softmax(logits), model.Predict(probe); !got.EqualApprox(want, 1e-12) {
			t.Fatalf("region %d: surrogate %v != model %v at its own probe", ri, got, want)
		}
	}
}

func TestInterpretJobNeedsWhiteBox(t *testing.T) {
	model := jobModel(5)
	r, err := NewRunner(model, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(OpInterpret, jobProbes(rand.New(rand.NewSource(6)), 2, model.Dim())); err == nil {
		t.Fatal("interpret accepted without a white-box replica")
	}
}

func TestJobValidation(t *testing.T) {
	model := jobModel(7)
	r, err := NewRunner(model, model, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit("embezzle", jobProbes(rand.New(rand.NewSource(8)), 1, model.Dim())); err == nil {
		t.Fatal("unknown op accepted")
	}
	if _, err := r.Submit(OpPredict, nil); err == nil {
		t.Fatal("empty job accepted")
	}
	if _, err := r.Submit(OpPredict, []mat.Vec{{1, 2}}); err == nil {
		t.Fatal("wrong-dim job accepted")
	}
}

// stallModel blocks Predict until released — holds jobs in the running
// state so eviction tests control the store's occupancy.
type stallModel struct {
	plm.Model
	gate chan struct{}
}

func (s *stallModel) Predict(x mat.Vec) mat.Vec {
	<-s.gate
	return s.Model.Predict(x)
}

func TestJobStoreEvictsFinishedAndRefusesWhenSaturated(t *testing.T) {
	inner := jobModel(9)
	stalled := &stallModel{Model: inner, gate: make(chan struct{})}
	r, err := NewRunner(stalled, nil, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	xs := jobProbes(rand.New(rand.NewSource(10)), 1, inner.Dim())

	// Two submits fill the bounded store; neither can finish while the gate
	// holds, so a third must be refused — backpressure, not an unbounded
	// queue.
	id1, err := r.Submit(OpPredict, xs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(OpPredict, xs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(OpPredict, xs); err != ErrBacklogFull {
		t.Fatalf("saturated store answered %v, want ErrBacklogFull", err)
	}

	// Release the gate: jobs finish, and the next submit evicts the oldest
	// finished job instead of refusing.
	close(stalled.gate)
	waitDone(t, r, id1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := r.Submit(OpPredict, xs); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("store never admitted a job after the backlog drained")
		}
		time.Sleep(time.Millisecond)
	}
	if r.Evicted() == 0 {
		t.Fatal("admission did not evict a finished job")
	}
	if _, ok := r.Get(id1); ok {
		t.Fatal("evicted job still visible")
	}
}

func TestJobHTTPLifecycleAndHarvestDoesNotBlock(t *testing.T) {
	// The wire-level acceptance gate: a 1k-instance harvest goes through
	// POST /jobs, the submit comes back immediately (202, no connection
	// held for the harvest), and polling GET /jobs/{id} eventually returns
	// the harvested regions.
	model := jobModel(11)
	shard, err := api.NewShard([]plm.Model{jobModel(11), jobModel(11)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(shard, model, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(shard, "jobs")
	r.Mount(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	xs := jobProbes(rand.New(rand.NewSource(12)), 1000, model.Dim())
	payload := submitRequest{Op: OpInterpret, Xs: make([][]float64, len(xs))}
	for i, x := range xs {
		payload.Xs[i] = x
	}
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	submitLatency := time.Since(start)
	var accepted View
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %s", resp.Status)
	}
	if submitLatency > 2*time.Second {
		t.Fatalf("submit blocked for %v — the whole point was not to", submitLatency)
	}

	var final View
	deadline := time.Now().Add(30 * time.Second)
	for {
		pr, err := http.Get(ts.URL + "/v1/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(pr.Body).Decode(&final); err != nil {
			t.Fatal(err)
		}
		pr.Body.Close()
		if final.Status == StatusDone || final.Status == StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", final.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Status != StatusDone {
		t.Fatalf("harvest ended %s (%s)", final.Status, final.Error)
	}
	if final.N != 1000 || len(final.Regions) == 0 {
		t.Fatalf("harvest answered n=%d regions=%d", final.N, len(final.Regions))
	}

	// Unknown and evicted ids answer 404, not 500.
	pr, err := http.Get(ts.URL + "/v1/jobs/job-9999")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job returned %s", pr.Status)
	}
}

func TestJobHTTPRejectsBadSubmit(t *testing.T) {
	model := jobModel(13)
	r, err := NewRunner(model, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := api.NewServer(model, "jobs")
	r.Mount(srv)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, body := range []string{
		`{"op":"interpret","xs":[[0,0,0,0,0,0]]}`, // no white-box side
		`{"op":"predict","xs":[[1,2]]}`,           // wrong dim
		`{"op":"predict","xs":[]}`,                // empty
		`{not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %q returned %s, want 400", body, resp.Status)
		}
	}
}
