package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/plm"
)

// oracleTol bounds the relative L1 distance between a recovered D_c and
// the white box's, so that an answer from another region fails. A
// neighbouring region's D_c differed by at least 5.5e-4 (d=784) and 2.1e-3
// (d=64) over 200 boundary crossings each of untrained seeded networks.
// Rounding grows as Algorithm 1 halves the edge: with every sample inside
// x0's region it reached 1.3e-6 at d=784 after 22 halvings.
const oracleTol = 1e-4

// digits returns n synthetic side×side digits drawn from rng.
func digits(rng *rand.Rand, side, n int) []mat.Vec {
	d := dataset.SyntheticDigits(rng, dataset.SynthConfig{Size: side, PerClass: (n + 9) / 10})
	return d.X[:n]
}

// seededNet builds the untrained PLNN a seed names. Every call with the same
// seed returns the same weights, so replicas and the oracle's white box
// agree with the served model.
func seededNet(seed int64, sizes ...int) *nn.Network {
	return nn.New(rand.New(rand.NewSource(seed)), sizes...)
}

// checkInterp compares one interpretation with the white box's closed form
// at x, records the distance in o, and returns the cause of a mismatch, or
// "".
func checkInterp(o *outcome, white *openbox.PLNN, x mat.Vec, c int, in *plm.Interpretation) string {
	if in.Class != c {
		return fmt.Sprintf("interpreted class %d, predicted %d", in.Class, c)
	}
	lin, err := white.LocalAt(x)
	if err != nil {
		return fmt.Sprintf("white box: %v", err)
	}
	want := lin.DecisionFeatures(c)
	var diff, norm float64
	for i, w := range want {
		diff += math.Abs(in.Features[i] - w)
		norm += math.Abs(w)
	}
	rel := diff / norm
	o.worstRelL1 = max(o.worstRelL1, rel)
	if !(rel <= oracleTol) {
		dist, layer, unit := nearestBoundary(white.Net, x)
		return fmt.Sprintf("D_c relative L1 %.3g from the white box (tolerance %g) after %d iterations, final edge %g; "+
			"x lies %.3g from the boundary of hidden layer %d unit %d",
			rel, oracleTol, in.Iterations, in.FinalEdge, dist, layer, unit)
	}
	return ""
}

// nearestBoundary returns the input-space distance from x to the closest
// activation boundary of x's region, and the hidden layer and unit it
// belongs to. A final edge near this distance means Algorithm 1's last
// sample set may straddle that boundary.
func nearestBoundary(net *nn.Network, x mat.Vec) (dist float64, layer, unit int) {
	dist = math.Inf(1)
	first := net.Layer(0)
	a, b := first.W, first.B // x's region maps x to pre-activations a·x + b
	for l := 0; l < net.NumLayers()-1; l++ {
		z := a.MulVec(x).AddInPlace(b)
		for j, v := range z {
			row := a.RawRow(j)
			if d := math.Abs(v) / row.Norm2(); d < dist {
				dist, layer, unit = d, l, j
			}
			slope := 1.0
			if v <= 0 {
				slope = net.Leak()
			}
			row.ScaleInPlace(slope)
			b[j] *= slope
		}
		next := net.LayerShared(l + 1)
		a, b = next.W.Mul(a), next.W.MulVec(b).AddInPlace(next.B)
	}
	return dist, layer, unit
}

// paperWorkload is the paper's own path at paper size: serial OpenAPI
// interpretations of 28×28 digits against one unbatched replica of the
// 784-256-128-100-10 PLNN, over loopback with the binary codec.
func paperWorkload() workload {
	return workload{
		name:      "paper-784",
		unit:      "interpretation",
		perSecond: 0.39,
		minUnits:  16,
		layers:    []string{"core", "client", "server", "forward"},
		prepare: func(seed int64, units int) (trial, error) {
			return &paperTrial{seed: seed, xs: digits(rand.New(rand.NewSource(seed+1)), 28, units)}, nil
		},
	}
}

type paperTrial struct {
	seed int64
	xs   []mat.Vec
}

type paperSystem struct {
	t      *paperTrial
	lb     *loopback
	model  plm.Model // what core sees
	interp *core.OpenAPI
	// results
	classes []int
	interps []*plm.Interpretation
}

func (t *paperTrial) setup(_ string, tr *tracer) (system, error) {
	replica := &openbox.PLNN{Net: seededNet(t.seed, 784, 256, 128, 100, 10)}
	lb, err := startLoopback(traced(tr, "server", traced(tr, "forward", replica)), "paper-784", nil, tr)
	if err != nil {
		return nil, err
	}
	return &paperSystem{
		t: t, lb: lb, model: traced(tr, "client", lb.client),
		interp: core.New(core.Config{Seed: t.seed}),
	}, nil
}

func (s *paperSystem) run(tr *tracer, o *outcome) {
	n := len(s.t.xs)
	s.classes = make([]int, n)
	s.interps = make([]*plm.Interpretation, n)
	errs := make([]error, n)
	for i, x := range s.t.xs {
		start := time.Now()
		root := tr.beginRoot("core", int64(i))
		y0 := plm.PredictAll(s.model, []mat.Vec{x})[0]
		c := y0.ArgMax()
		in, err := s.interp.InterpretWithPrediction(s.model, x, y0, c)
		root.end(0)
		o.latencies = append(o.latencies, msSince(start))
		if err == nil {
			err = s.lb.client.Err()
		}
		if in != nil {
			in.Samples = nil // not needed by the oracle; keeps the heap flat
		}
		s.classes[i], s.interps[i], errs[i] = c, in, err
	}
	o.interps = n
	o.roundTrips = s.lb.transport.requests.Load()
	wc := s.lb.client.WireCounts()
	o.layer["client.bytes_per_interp"] = float64(wc.BytesIn+wc.BytesOut) / float64(n)
	for i, err := range errs {
		if err != nil {
			o.fail(i, err.Error())
		}
	}
}

func (s *paperSystem) verify(o *outcome) {
	white := &openbox.PLNN{Net: seededNet(s.t.seed, 784, 256, 128, 100, 10)}
	sumInterps(o, s.interps)
	for i, in := range s.interps {
		if in == nil {
			continue
		}
		if cause := checkInterp(o, white, s.t.xs[i], s.classes[i], in); cause != "" {
			o.wrong(i, cause)
		}
	}
}

func (s *paperSystem) close() error { return s.lb.close() }

// sumInterps records the exact counts of a set of interpretations.
func sumInterps(o *outcome, ins []*plm.Interpretation) {
	for _, in := range ins {
		if in != nil {
			o.exact["queries"] += int64(in.Queries)
			o.exact["iterations"] += int64(in.Iterations)
		}
	}
	o.queries = o.exact["queries"]
}

// poolWorkload is the bulk path: 8-instance batches through core.Pool's two
// workers, whose probes coalesce in one api.Aggregator with the library's
// fixed 2 ms window, over loopback into a response cache in front of a
// shard of two local replicas of a 64-64-32-10 PLNN on 8×8 digits.
func poolWorkload() workload {
	return workload{
		name:      "pool-64",
		unit:      "batch of 8",
		perSecond: 6.1,
		minUnits:  16,
		layers:    []string{"core", "aggregator", "client", "server", "shard", "forward"},
		prepare: func(seed int64, units int) (trial, error) {
			return &poolTrial{seed: seed, xs: digits(rand.New(rand.NewSource(seed+1)), 8, units*poolBatch)}, nil
		},
	}
}

const (
	poolBatch    = 8
	poolWorkers  = 2
	poolReplicas = 2
	// poolCache is the response cache size of plmserve's documented
	// "-replicas N -cache 4096" deployment.
	poolCache = 4096
)

type poolTrial struct {
	seed int64
	xs   []mat.Vec
}

type poolSystem struct {
	t       *poolTrial
	lb      *loopback
	cache   *api.ResponseCache
	agg     *api.Aggregator
	model   plm.Model // what core sees
	pool    *core.Pool
	results []core.Result
}

func (t *poolTrial) setup(_ string, tr *tracer) (system, error) {
	net := seededNet(t.seed, 64, 64, 32, 10)
	models := make([]plm.Model, poolReplicas)
	for i := range models {
		models[i] = &openbox.PLNN{Net: net.Clone()}
	}
	backends := api.LocalBackends(models, "pool-64")
	if tr != nil {
		for i, b := range backends {
			backends[i] = tracedBackend{Backend: b, tr: tr}
		}
	}
	shard, err := api.NewShardBackends(backends, api.ShardConfig{})
	if err != nil {
		return nil, err
	}
	cache, err := api.NewResponseCache(traced(tr, "shard", shard), poolCache)
	if err != nil {
		return nil, err
	}
	lb, err := startLoopback(traced(tr, "server", cache), "pool-64", nil, tr)
	if err != nil {
		return nil, err
	}
	agg := repro.AggregateQueries(traced(tr, "client", lb.client), 0, 0)
	return &poolSystem{
		t: t, lb: lb, cache: cache, agg: agg, model: traced(tr, "aggregator", agg),
		pool: core.NewPool(core.Config{Seed: t.seed}, poolWorkers),
	}, nil
}

func (s *poolSystem) run(tr *tracer, o *outcome) {
	n := len(s.t.xs)
	s.results = make([]core.Result, 0, n)
	for b := 0; b*poolBatch < n; b++ {
		xs := s.t.xs[b*poolBatch : min(n, (b+1)*poolBatch)]
		start := time.Now()
		root := tr.beginRoot("core", int64(b))
		res := s.pool.InterpretMany(s.model, xs)
		root.end(len(xs))
		o.latencies = append(o.latencies, msSince(start))
		if err := s.agg.Err(); err != nil {
			for i := range res {
				if res[i].Err == nil {
					res[i].Err = fmt.Errorf("transport: %w", err)
				}
			}
			s.agg.ResetErr()
		}
		for _, r := range res {
			if r.Interp != nil {
				r.Interp.Samples = nil // not needed by the oracle; keeps the heap flat
			}
			r.Index += b * poolBatch
			s.results = append(s.results, r)
		}
	}
	o.interps = n
	o.roundTrips = s.lb.transport.requests.Load()
	wc := s.lb.client.WireCounts()
	o.layer["client.bytes_per_interp"] = float64(wc.BytesIn+wc.BytesOut) / float64(n)
	if f := s.agg.Flushes(); f > 0 {
		o.layer["aggregator.probes_per_flush"] = float64(s.agg.Probes()) / float64(f)
	}
	hits, misses, _ := s.cache.CacheStats()
	if hits+misses > 0 {
		o.layer["rescache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	for _, r := range s.results {
		if r.Err != nil {
			o.fail(r.Index, r.Err.Error())
		}
	}
}

func (s *poolSystem) verify(o *outcome) {
	white := &openbox.PLNN{Net: seededNet(s.t.seed, 64, 64, 32, 10)}
	ins := make([]*plm.Interpretation, len(s.results))
	for i, r := range s.results {
		ins[i] = r.Interp
	}
	sumInterps(o, ins)
	for _, r := range s.results {
		if r.Interp == nil {
			continue
		}
		x := s.t.xs[r.Index]
		c := white.Predict(x).ArgMax()
		if cause := checkInterp(o, white, x, c, r.Interp); cause != "" {
			o.wrong(r.Index, cause)
		}
	}
}

func (s *poolSystem) close() error {
	s.agg.Close()
	return s.lb.close()
}
