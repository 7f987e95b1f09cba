package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/mat"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's origin; Req is the workload's request (interpretation,
// batch or job index) the call served, Parent the span that caused it (0 at
// a root, or where the caller hands the layer no context).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: no decorators are installed and begin is never called.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	// root and req name the open root span and its request. The load loops
	// are closed and serial at the root, so a layer whose caller passes no
	// context (the aggregator's flush, the job runner's store calls)
	// attributes its spans to the request in flight.
	root atomic.Int64
	req  atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// spanRef is what a context carries from one boundary to the next.
type spanRef struct{ id, req int64 }

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// openSpan is a span whose end is not yet recorded.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span named name under the span ctx carries, or under the
// current root when ctx carries none, and returns a context carrying it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *openSpan) {
	parent, ok := spanFrom(ctx)
	if !ok {
		parent = spanRef{id: t.root.Load(), req: t.req.Load()}
	}
	s := span{ID: t.ids.Add(1), Parent: parent.id, Req: parent.req, Name: name, Start: t.now()}
	return withSpan(ctx, spanRef{id: s.ID, req: s.Req}), &openSpan{t: t, s: s}
}

// beginRoot opens the root span of request req and makes it current. On
// an untraced run it returns nil, whose end does nothing.
func (t *tracer) beginRoot(name string, req int64) *openSpan {
	if t == nil {
		return nil
	}
	s := span{ID: t.ids.Add(1), Req: req, Name: name, Start: t.now()}
	t.req.Store(req)
	t.root.Store(s.ID)
	return &openSpan{t: t, s: s}
}

func (o *openSpan) end(rows int) {
	if o == nil {
		return
	}
	o.s.End = o.t.now()
	o.s.Rows = rows
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// timed runs f, inside a span named name when tracing.
func (t *tracer) timed(name string, f func()) {
	if t == nil {
		f()
		return
	}
	_, s := t.begin(context.Background(), name)
	f()
	s.end(0)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// breakdown charges every instant of [from, to) to the deepest layer with
// an open span, layers ordered by depth (index 0 is the root). For a chain
// of nested calls on one goroutine this is the usual self time: a span's
// duration minus what its children cover. Where layers run concurrently
// (pool workers, shard replicas, the job runner beside the polling client)
// an instant still counts once, so the self times sum to the covered part
// of the window, and the rest of the window is returned as the load loop's
// own time between requests.
func breakdown(spans []span, layers []string, from, to int64) (self map[string]int64, gap int64) {
	depth := make(map[string]int, len(layers))
	for i, l := range layers {
		depth[l] = i
	}
	type edge struct {
		at    int64
		layer int
		delta int
	}
	edges := make([]edge, 0, 2*len(spans))
	for _, s := range spans {
		d, ok := depth[s.Name]
		if !ok {
			continue
		}
		a, b := max(s.Start, from), min(s.End, to)
		if b <= a {
			continue
		}
		edges = append(edges, edge{a, d, 1}, edge{b, d, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	open := make([]int, len(layers))
	self = make(map[string]int64, len(layers))
	last := from
	charge := func(upto int64) {
		if upto <= last {
			return
		}
		deepest := -1
		for d := len(open) - 1; d >= 0; d-- {
			if open[d] > 0 {
				deepest = d
				break
			}
		}
		if deepest < 0 {
			gap += upto - last
		} else {
			self[layers[deepest]] += upto - last
		}
		last = upto
	}
	for _, e := range edges {
		charge(e.at)
		open[e.layer] += e.delta
	}
	charge(to)
	return self, gap
}

// spanStats sums the durations and rows of the spans named name.
func spanStats(spans []span, name string) (n int, total time.Duration, rows int) {
	for _, s := range spans {
		if s.Name == name {
			n++
			total += time.Duration(s.End - s.Start)
			rows += s.Rows
		}
	}
	return n, total, rows
}

// ctxBatchPredictor is the context-aware batch method api.Server and
// api.ResponseCache look for before falling back to plm.BatchPredictor.
type ctxBatchPredictor interface {
	PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error)
}

// tracedModel times every call into a model at one layer boundary. It
// offers each optional method its callers type-assert — plm.BatchPredictor,
// the context batch method, and the sticky Err core.Pool checks — and
// forwards each to the same method of the wrapped model, or to the
// fallback the caller itself would take, so the traced run follows the
// untraced run's call path.
type tracedModel struct {
	inner plm.Model
	batch plm.BatchPredictor
	name  string
	tr    *tracer
}

// traced wraps m in a decorator named name, or returns m itself on an
// untraced run. Every model the benchmark wraps has a batch method.
func traced(tr *tracer, name string, m plm.Model) plm.Model {
	if tr == nil {
		return m
	}
	bp, ok := m.(plm.BatchPredictor)
	if !ok {
		panic(fmt.Sprintf("trace %s: %T has no batch method", name, m))
	}
	return &tracedModel{inner: m, batch: bp, name: name, tr: tr}
}

func (m *tracedModel) Dim() int     { return m.inner.Dim() }
func (m *tracedModel) Classes() int { return m.inner.Classes() }

func (m *tracedModel) Predict(x mat.Vec) mat.Vec {
	_, s := m.tr.begin(context.Background(), m.name)
	defer s.end(1)
	return m.inner.Predict(x)
}

func (m *tracedModel) PredictBatch(xs []mat.Vec) ([]mat.Vec, error) {
	return m.PredictBatchCtx(context.Background(), xs)
}

func (m *tracedModel) PredictBatchCtx(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	ctx, s := m.tr.begin(ctx, m.name)
	defer s.end(len(xs))
	if cb, ok := m.inner.(ctxBatchPredictor); ok {
		return cb.PredictBatchCtx(ctx, xs)
	}
	return m.batch.PredictBatch(xs)
}

func (m *tracedModel) Err() error {
	if e, ok := m.inner.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// tracedBackend times a shard replica. The shard hands backends the
// request context, so replica spans link to the server span that caused
// them. Stats and Healthy pass through the embedded backend.
type tracedBackend struct {
	api.Backend
	tr *tracer
}

func (b tracedBackend) Predict(ctx context.Context, x mat.Vec) (mat.Vec, error) {
	ctx, s := b.tr.begin(ctx, "forward")
	defer s.end(1)
	return b.Backend.Predict(ctx, x)
}

func (b tracedBackend) PredictBatch(ctx context.Context, xs []mat.Vec) ([]mat.Vec, error) {
	ctx, s := b.tr.begin(ctx, "forward")
	defer s.end(len(xs))
	return b.Backend.PredictBatch(ctx, xs)
}

// tracedStore times the region atlas behind the RAM front. Stats and Len
// pass through the embedded store.
type tracedStore struct {
	openbox.RegionStore
	tr *tracer
}

func (s *tracedStore) Lookup(key string) (*plm.Linear, bool) {
	_, o := s.tr.begin(context.Background(), "atlas.lookup")
	defer o.end(0)
	return s.RegionStore.Lookup(key)
}

func (s *tracedStore) Insert(key string, lin *plm.Linear) *plm.Linear {
	_, o := s.tr.begin(context.Background(), "atlas.insert")
	defer o.end(0)
	return s.RegionStore.Insert(key, lin)
}

// spanHeader carries "request/span" from the client's transport to the
// server's handler, linking server spans to the round trip that caused
// them.
const spanHeader = "X-Perfbench-Span"

// spanTransport stamps the span a request's context carries onto the
// request.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := spanFrom(r.Context()); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.req, ref.id))
	}
	return t.base.RoundTrip(r)
}

// spanHandler moves a stamped span from the request header into the
// request context the server hands its model.
func spanHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if req, id, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			rq, err1 := strconv.ParseInt(req, 10, 64)
			sp, err2 := strconv.ParseInt(id, 10, 64)
			if err1 == nil && err2 == nil {
				r = r.WithContext(withSpan(r.Context(), spanRef{id: sp, req: rq}))
			}
		}
		h.ServeHTTP(w, r)
	})
}
