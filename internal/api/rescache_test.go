package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/plm"
)

func rcProbe(rng *rand.Rand, d int) mat.Vec {
	x := make(mat.Vec, d)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestResponseCacheRejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -3} {
		if _, err := NewResponseCache(testModel(1), c); err == nil {
			t.Fatalf("capacity %d accepted", c)
		}
	}
}

func TestResponseCacheLRUPromotesOnHit(t *testing.T) {
	inner := NewCounter(testModel(2))
	rc, err := NewResponseCache(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a, b, c := rcProbe(rng, 4), rcProbe(rng, 4), rcProbe(rng, 4)

	rc.Predict(a) // miss
	rc.Predict(b) // miss
	rc.Predict(a) // hit: promotes a over b
	rc.Predict(c) // miss: evicts b (least recently used), not a
	base := inner.Count()
	rc.Predict(a) // must still be cached
	if inner.Count() != base {
		t.Fatal("a was evicted although it was more recently used than b")
	}
	rc.Predict(b) // must have been evicted
	if inner.Count() != base+1 {
		t.Fatal("b survived although it was the least recently used entry")
	}
	hits, misses, evictions := rc.CacheStats()
	if hits != 2 || misses != 4 || evictions != 2 {
		t.Fatalf("stats %d/%d/%d, want hits=2 misses=4 evictions=2", hits, misses, evictions)
	}
	if rc.Len() != 2 {
		t.Fatalf("cache holds %d entries, cap 2", rc.Len())
	}
}

func TestResponseCachePredictMatchesInner(t *testing.T) {
	model := testModel(4)
	rc, err := NewResponseCache(model, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := rcProbe(rng, 4)
	want := model.Predict(x)
	for round := 0; round < 2; round++ { // miss then hit
		got := rc.Predict(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d class %d: %v != %v", round, i, got[i], want[i])
			}
		}
	}
}

func TestResponseCacheBatchCoalescesAndPreservesOrder(t *testing.T) {
	inner := NewCounter(testModel(6))
	rc, err := NewResponseCache(inner, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a, b := rcProbe(rng, 4), rcProbe(rng, 4)
	rc.Predict(a) // warm a
	base := inner.Count()

	batch := []mat.Vec{b, a, b.Clone(), a.Clone()} // one real miss (b), rest cached/coalesced
	got, err := rc.PredictBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Count() != base+1 {
		t.Fatalf("inner answered %d probes, want 1 (the distinct miss)", inner.Count()-base)
	}
	wantA, wantB := testModel(6).Predict(a), testModel(6).Predict(b)
	for i, want := range []mat.Vec{wantB, wantA, wantB, wantA} {
		for c := range want {
			if got[i][c] != want[c] {
				t.Fatalf("batch item %d class %d: %v != %v", i, c, got[i][c], want[c])
			}
		}
	}
	hits, misses, _ := rc.CacheStats()
	if misses != 2 { // a's warmup + b
		t.Fatalf("misses = %d, want 2", misses)
	}
	if hits != 3 { // a hit twice, duplicate b coalesced as hit
		t.Fatalf("hits = %d, want 3", hits)
	}
}

type failingBatchModel struct{ plm.Model }

func (f failingBatchModel) PredictBatch([]mat.Vec) ([]mat.Vec, error) {
	return nil, fmt.Errorf("replica down")
}

func TestResponseCacheBatchPropagatesInnerError(t *testing.T) {
	rc, err := NewResponseCache(failingBatchModel{testModel(8)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if _, err := rc.PredictBatch([]mat.Vec{rcProbe(rng, 4)}); err == nil {
		t.Fatal("inner batch failure was swallowed")
	}
}

func TestResponseCacheConcurrent(t *testing.T) {
	rc, err := NewResponseCache(testModel(10), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	probes := make([]mat.Vec, 8)
	for i := range probes {
		probes[i] = rcProbe(rng, 4)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				x := probes[(w+round)%len(probes)]
				if p := rc.Predict(x); len(p) != rc.Classes() {
					panic("short prediction")
				}
				if _, err := rc.PredictBatch(probes[:2]); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestServerStatsReportsCacheCounters drives a cached, sharded server over
// HTTP and checks the /stats reach-through: cache counters present under
// caches.response, and the replica breakdown still visible behind the cache.
func TestServerStatsReportsCacheCounters(t *testing.T) {
	model := testModel(12)
	shard, err := NewShard([]plm.Model{model, model})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewResponseCache(shard, 8)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(rc, "cached"))
	defer srv.Close()
	client, err := Dial(srv.URL, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	x := rcProbe(rng, 4)
	client.Predict(x)
	client.Predict(x)
	if err := client.Err(); err != nil {
		t.Fatal(err)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Caches         map[string]plm.StoreStats `json:"caches"`
		ReplicaQueries []int64                   `json:"replica_queries"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	got, ok := stats.Caches["response"]
	if !ok {
		t.Fatalf("caches section has no response store: %s", raw)
	}
	if got.Hits != 1 || got.Misses != 1 || got.Evictions != 0 || got.Size != 1 {
		t.Fatalf("caches.response = %+v, want hits=1 misses=1 evictions=0 size=1", got)
	}
	if len(stats.ReplicaQueries) != 2 {
		t.Fatalf("replica_queries = %v, want 2 replicas behind the cache", stats.ReplicaQueries)
	}
	// The counters are reported once, under caches.response only.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for name := range fields {
		if strings.HasPrefix(name, "cache_") {
			t.Fatalf("/stats still carries the flat %s field", name)
		}
	}
}
