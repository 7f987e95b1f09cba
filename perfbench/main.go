// Command perfbench is the repository's end-to-end benchmark: three
// closed-loop workloads against the in-process plmserve stack on loopback,
// each checked against the white box. See README.md for why each workload
// exists and what its traced breakdown shows.
//
//	perfbench --workload paper-784 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object: whether every output
// was correct, how many interpretations were attempted and failed, and the
// metrics — end to end with --trace 0, per layer with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name string
	unit string // what one latency sample times
	// perSecond is the latency units one second holds on the reference
	// machine (a 2-vCPU AVX-512 Xeon). It sizes the instance list, which
	// is fixed by the seed and --seconds, so every run does the same work.
	perSecond float64
	minUnits  int
	layers    []string // trace layers, outermost first
	prepare   func(seed int64, units int) (trial, error)
}

// trial is a workload's generated inputs.
type trial interface {
	// setup builds the system under test; tr is nil on untraced runs.
	setup(dir string, tr *tracer) (system, error)
}

// system is one built stack.
type system interface {
	// run drives the whole instance list through the stack, timed.
	run(tr *tracer, o *outcome)
	// verify checks the outputs against the white box, untimed.
	verify(o *outcome)
	close() error
}

func workloads() []workload {
	return []workload{paperWorkload(), poolWorkload(), regionsWorkload()}
}

// failure is one attempted interpretation that did not pass. wrong marks an
// output the oracle rejected, as opposed to an error the program reported.
type failure struct {
	slot  int
	cause string
	wrong bool
}

// outcome is what one measured run saw.
type outcome struct {
	interps    int
	latencies  []float64 // ms per latency unit
	queries    int64
	roundTrips int64
	failures   []failure
	// exact holds counts that repeat bit for bit for one seed.
	exact map[string]int64
	// layer holds per-layer metrics read from the program's counters.
	layer   map[string]float64
	setups  []float64 // seconds per set-up
	wall    time.Duration
	cpu     time.Duration
	peakRSS float64 // MB
	// worstRelL1 is the largest D_c distance the oracle saw.
	worstRelL1 float64
	spans      []span
	from       int64 // traced window, tracer nanoseconds
	to         int64
}

func (o *outcome) fail(slot int, cause string) {
	o.failures = append(o.failures, failure{slot: slot, cause: cause})
}

func (o *outcome) wrong(slot int, cause string) {
	o.failures = append(o.failures, failure{slot: slot, cause: cause, wrong: true})
}

// failed counts the attempted interpretations with at least one failure.
func (o *outcome) failed() int {
	slots := make(map[int]bool)
	for _, f := range o.failures {
		slots[f.slot] = true
	}
	return len(slots)
}

func (o *outcome) anyWrong() bool {
	for _, f := range o.failures {
		if f.wrong {
			return true
		}
	}
	return false
}

// measure prepares the workload's inputs, sets the stack up setups times
// (keeping the last), runs the instance list through it and checks the
// outputs.
func measure(w workload, seed int64, units int, dir string, setups int, tr *tracer) (*outcome, error) {
	tri, err := w.prepare(seed, units)
	if err != nil {
		return nil, err
	}
	o := &outcome{exact: map[string]int64{}, layer: map[string]float64{}}
	var sys system
	for k := 0; k < setups; k++ {
		runtime.GC()
		start := time.Now()
		s, err := tri.setup(dir, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		if k < setups-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		sys = s
	}
	runtime.GC()
	if tr != nil {
		o.from = tr.now()
	}
	cpu0, start := cpuTime(), time.Now()
	sys.run(tr, o)
	o.wall, o.cpu = time.Since(start), cpuTime()-cpu0
	if tr != nil {
		o.to = tr.now()
		o.spans = tr.snapshot()
	}
	o.peakRSS = peakRSS()
	vstart := time.Now()
	sys.verify(o)
	fmt.Printf("checked %d interpretations against the white box in %.1f s\n", o.interps, time.Since(vstart).Seconds())
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	return o, nil
}

// setupRepeats is how many times an untraced run builds its stack; set-up
// time is their median.
const setupRepeats = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-784, pool-64 or regions-784")
		seed    = flag.Int64("seed", 1, "seed of the model weights and the instance list")
		seconds = flag.Int("seconds", 25, "run length on the reference machine; sizes the instance list")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for atlases and traces")
	)
	flag.Parse()
	res, err := benchmark(*name, *seed, *seconds, 0, *trace, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// benchmark runs one workload and returns its result line. units > 0
// replaces the list length seconds would give; the tests run tiny lists.
func benchmark(name string, seed int64, seconds, units, trace int, workdir string) (*result, error) {
	var w workload
	for _, c := range workloads() {
		if c.name == name {
			w = c
		}
	}
	if w.name == "" {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if units <= 0 {
		units = max(w.minUnits, int(math.Round(float64(seconds)*w.perSecond)))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	fmt.Printf("workload %s, seed %d: %d × %s\n", w.name, seed, units, w.unit)
	if trace == 0 {
		o, err := measure(w, seed, units, workdir, setupRepeats, nil)
		if err != nil {
			return nil, err
		}
		report(w, o)
		return &result{
			Correct:   !o.anyWrong(),
			Attempted: o.interps,
			Failed:    o.failed(),
			Metrics:   endToEnd(o),
		}, nil
	}
	// The traced run repeats the untraced run first, so its exact counts
	// can be checked against the traced ones and the tracing overhead read
	// off the two wall times.
	base, err := measure(w, seed, units, workdir, 1, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	o, err := measure(w, seed, units, workdir, 1, tr)
	if err != nil {
		return nil, err
	}
	report(w, o)
	parity := sameCounts(base.exact, o.exact)
	if err := tr.write(filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))); err != nil {
		return nil, err
	}
	return &result{
		Correct:   parity && !base.anyWrong() && !o.anyWrong(),
		Attempted: o.interps,
		Failed:    o.failed(),
		Metrics:   perLayer(w, base, o),
	}, nil
}

// sameCounts prints and compares the exact counts of the untraced and the
// traced run.
func sameCounts(base, traced map[string]int64) bool {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ok := len(base) == len(traced)
	for _, k := range keys {
		mark := "equal"
		if base[k] != traced[k] {
			mark, ok = "DIFFERENT", false
		}
		fmt.Printf("exact count %s: untraced %d, traced %d (%s)\n", k, base[k], traced[k], mark)
	}
	return ok
}

// report prints the latency summary and every failure with its slot and
// cause.
func report(w workload, o *outcome) {
	tail, pct := tailLatency(o.latencies)
	fmt.Printf("%d interpretations in %.3f s; latency per %s: p50 %.3f ms, p%.1f %.3f ms (%d samples, %d beyond)\n",
		o.interps, o.wall.Seconds(), w.unit, median(o.latencies), pct, tail, len(o.latencies), min(10, len(o.latencies)-1))
	if o.worstRelL1 > 0 {
		fmt.Printf("largest D_c relative L1 from the white box: %.3g (tolerance %g)\n", o.worstRelL1, oracleTol)
	}
	sort.SliceStable(o.failures, func(i, j int) bool { return o.failures[i].slot < o.failures[j].slot })
	for _, f := range o.failures {
		kind := "failed"
		if f.wrong {
			kind = "wrong"
		}
		fmt.Printf("%s: interpretation %d: %s\n", kind, f.slot, f.cause)
	}
}

// endToEndNames lists every end-to-end metric with its unit.
var endToEndNames = []metricName{
	{"interp_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_rate", "ratio"},
	{"queries_per_interp", "count"},
	{"round_trips_per_interp", "count"},
	{"cpu_ms_per_interp", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

type metricName struct{ name, unit string }

// metrics attaches units to the values of the named metrics; a name
// without a value reads 0.
func metrics(names []metricName, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, m := range names {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

func endToEnd(o *outcome) map[string]metric {
	n := float64(o.interps)
	tail, _ := tailLatency(o.latencies)
	return metrics(endToEndNames, map[string]float64{
		"interp_per_s":           n / o.wall.Seconds(),
		"latency_p50_ms":         median(o.latencies),
		"latency_tail_ms":        tail,
		"success_rate":           (n - float64(o.failed())) / n,
		"queries_per_interp":     float64(o.queries) / n,
		"round_trips_per_interp": float64(o.roundTrips) / n,
		"cpu_ms_per_interp":      float64(o.cpu) / float64(time.Millisecond) / n,
		"setup_s":                median(o.setups),
		"peak_rss_mb":            o.peakRSS,
	})
}

// perLayerNames lists every per-layer metric with its unit. A workload
// prints 0 for a layer it does not exercise.
var perLayerNames = []metricName{
	{"core.self_ms", "ms"},
	{"core.iterations", "count"},
	{"aggregator.wait_ms", "ms"},
	{"aggregator.probes_per_flush", "count"},
	{"client.rt_ms", "ms"},
	{"client.bytes_per_interp", "B"},
	{"server.overhead_ms", "ms"},
	{"rescache.hit_ratio", "ratio"},
	{"shard.self_ms", "ms"},
	{"forward.us_per_row", "us"},
	{"jobs.wait_ms", "ms"},
	{"jobs.polls_per_job", "count"},
	{"jobs.stream_ms", "ms"},
	{"regions.front_hit_ratio", "ratio"},
	{"regions.compositions_per_job", "count"},
	{"atlas.lookup_us", "us"},
	{"atlas.insert_us", "us"},
	{"atlas.hit_ratio", "ratio"},
	{"atlas.bytes_per_region", "B"},
	{"atlas.disk_mb", "MB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// perLayer derives the per-layer metrics of a traced run. Self times are
// per latency unit (one interpretation, batch or job), so a layer's share
// of the latency is its self time over the mean latency.
func perLayer(w workload, base, o *outcome) map[string]metric {
	self, gap := breakdown(o.spans, w.layers, o.from, o.to)
	window := o.to - o.from
	units := float64(len(o.latencies))
	perUnit := func(layers ...string) float64 {
		var ns int64
		for _, l := range layers {
			ns += self[l]
		}
		return float64(ns) / 1e6 / units
	}
	fmt.Printf("traced window %.3f s; self time per %s by layer:\n", float64(window)/1e9, w.unit)
	for _, l := range w.layers {
		fmt.Printf("  %-14s %10.3f ms  %5.1f%%\n", l, perUnit(l), 100*float64(self[l])/float64(window))
	}
	fmt.Printf("  %-14s %10.3f ms  %5.1f%%\n", "(between)", float64(gap)/1e6/units, 100*float64(gap)/float64(window))

	v := o.layer
	if o.interps > 0 {
		v["core.iterations"] = float64(o.exact["iterations"]) / float64(o.interps)
	}
	v["core.self_ms"] = perUnit("core")
	v["aggregator.wait_ms"] = perUnit("aggregator")
	v["shard.self_ms"] = perUnit("shard")
	v["jobs.wait_ms"] = perUnit("jobs.poll", "jobs.pause")
	v["jobs.stream_ms"] = perUnit("jobs.stream")
	if n, d, _ := spanStats(o.spans, "client"); n > 0 {
		_, inside, _ := spanStats(o.spans, "server")
		v["client.rt_ms"] = float64(d) / 1e6 / float64(n)
		v["server.overhead_ms"] = float64(d-inside) / 1e6 / float64(n)
	}
	if _, d, rows := spanStats(o.spans, "forward"); rows > 0 {
		v["forward.us_per_row"] = float64(d) / 1e3 / float64(rows)
	}
	if n, d, _ := spanStats(o.spans, "atlas.lookup"); n > 0 {
		v["atlas.lookup_us"] = float64(d) / 1e3 / float64(n)
	}
	if n, d, _ := spanStats(o.spans, "atlas.insert"); n > 0 {
		v["atlas.insert_us"] = float64(d) / 1e3 / float64(n)
	}
	v["trace.coverage"] = 1 - float64(gap)/float64(window)
	v["trace.overhead_pct"] = 100 * (o.wall.Seconds()/base.wall.Seconds() - 1)
	fmt.Printf("tracing overhead: %.1f%% (traced %.3f s, untraced %.3f s)\n", v["trace.overhead_pct"], o.wall.Seconds(), base.wall.Seconds())

	return metrics(perLayerNames, v)
}

// median returns the middle of xs, interpolating between the two middle
// values of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the highest order statistic with at least ten samples
// above it, and the percentile it sits at. Fewer than eleven samples give
// the minimum.
func tailLatency(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := max(0, len(s)-11)
	return s[k], 100 * float64(k+1) / float64(len(s))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// peakRSS reads the process's peak resident set size, in MB.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
