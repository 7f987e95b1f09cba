package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"repro/internal/atlas"
	"repro/internal/jobs"
	"repro/internal/mat"
	"repro/internal/openbox"
	"repro/internal/plm"
)

const (
	jobSize  = 32
	jobFresh = 8 // instances per job never submitted before; the rest repeat earlier ones
	// regionFront is cmd/plmserve's RAM front over the atlas. Once more
	// regions than this are stored, repeats start reaching the disk.
	regionFront = 1024
	jobWorkers  = 2
	// jobStore bounds finished jobs kept for streaming; the client streams
	// each job before submitting the next.
	jobStore = 8
	// pollPause is the client's wait between polls of an unfinished job.
	pollPause = time.Millisecond
)

// regionsWorkload is the white-box region data service: interpret jobs
// through POST /v1/jobs, polled to done and streamed back, over a job
// runner whose closed forms live in a RAM front over a fresh disk atlas.
func regionsWorkload() workload {
	return workload{
		name:      "regions-784",
		unit:      "job of 32",
		perSecond: 15.6,
		minUnits:  12,
		layers:    []string{"job", "jobs.submit", "jobs.poll", "jobs.pause", "jobs.stream", "atlas.lookup", "atlas.insert"},
		prepare:   prepareRegions,
	}
}

type regionsTrial struct {
	seed int64
	xs   []mat.Vec // distinct instances
	jobs [][]int   // per job, indices into xs
}

// prepareRegions draws the job list: the first job is all fresh, every
// later one has jobFresh fresh instances and repeats the rest uniformly
// from instances earlier jobs submitted.
func prepareRegions(seed int64, units int) (trial, error) {
	fresh := jobSize + (units-1)*jobFresh
	t := &regionsTrial{seed: seed, xs: digits(rand.New(rand.NewSource(seed+1)), 28, fresh)}
	rng := rand.New(rand.NewSource(seed + 2))
	next := 0
	for j := 0; j < units; j++ {
		ids := make([]int, 0, jobSize)
		seen := next
		k := jobSize
		if j > 0 {
			k = jobFresh
		}
		for ; k > 0; k-- {
			ids = append(ids, next)
			next++
		}
		for len(ids) < jobSize {
			ids = append(ids, rng.Intn(seen))
		}
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		t.jobs = append(t.jobs, ids)
	}
	return t, nil
}

type regionsSystem struct {
	t     *regionsTrial
	dir   string
	atlas *atlas.Atlas
	white *openbox.PLNN
	lb    *loopback
	// results, per job: a digest per streamed region
	streamed [][]uint64
	errs     []error
	polls    int
}

func (t *regionsTrial) setup(dir string, tr *tracer) (system, error) {
	dir, err := os.MkdirTemp(dir, "atlas-")
	if err != nil {
		return nil, err
	}
	a, err := atlas.Open(filepath.Join(dir, "regions.atlas"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var back openbox.RegionStore = a
	if tr != nil {
		back = &tracedStore{RegionStore: a, tr: tr}
	}
	net := seededNet(t.seed, 784, 256, 128, 100, 10)
	white := openbox.NewCachedPLNNOpts(net, openbox.StoreOptions{Capacity: regionFront, Backing: back})
	served := &openbox.PLNN{Net: net.Clone()}
	// The runner's workers block on its queue for the life of the process;
	// the runner has no stop method.
	runner, err := jobs.NewRunner(served, white, jobStore, jobWorkers)
	if err != nil {
		a.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	lb, err := startLoopback(served, "regions-784", runner.Mount, tr)
	if err != nil {
		a.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &regionsSystem{t: t, dir: dir, atlas: a, white: white, lb: lb}, nil
}

func (s *regionsSystem) run(tr *tracer, o *outcome) {
	s.streamed = make([][]uint64, len(s.t.jobs))
	s.errs = make([]error, len(s.t.jobs))
	for j, ids := range s.t.jobs {
		xs := make([]mat.Vec, len(ids))
		for k, id := range ids {
			xs[k] = s.t.xs[id]
		}
		start := time.Now()
		root := tr.beginRoot("job", int64(j))
		s.streamed[j], s.errs[j] = s.runJob(tr, xs)
		root.end(len(xs))
		o.latencies = append(o.latencies, msSince(start))
	}
	o.interps = len(s.t.jobs) * jobSize
	o.roundTrips = s.lb.transport.requests.Load()
	o.queries = int64(o.interps) // every instance is shipped once
	wc := s.lb.srv.WireCounts()
	o.layer["client.bytes_per_interp"] = float64(wc.BytesIn+wc.BytesOut) / float64(o.interps)
	o.layer["jobs.polls_per_job"] = float64(s.polls) / float64(len(s.t.jobs))
	o.layer["regions.compositions_per_job"] = float64(s.white.RegionCompositions()) / float64(len(s.t.jobs))
	all, st := s.white.RegionStoreStats(), s.atlas.Stats()
	frontHits := all.Hits - st.Hits
	if lookups := frontHits + st.Hits + st.Misses; lookups > 0 {
		o.layer["regions.front_hit_ratio"] = float64(frontHits) / float64(lookups)
	}
	if st.Hits+st.Misses > 0 {
		o.layer["atlas.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	if st.Size > 0 {
		o.layer["atlas.bytes_per_region"] = float64(st.Bytes) / float64(st.Size)
	}
	o.layer["atlas.disk_mb"] = float64(st.Bytes) / (1 << 20)
	o.exact["compositions"] = s.white.RegionCompositions()
	o.exact["atlas_regions"] = int64(st.Size)
	o.exact["atlas_hits"] = st.Hits
	for j, err := range s.errs {
		if err != nil {
			for k, id := range s.t.jobs[j] {
				o.fail(j*jobSize+k, fmt.Sprintf("job %d, instance %d: %v", j, id, err))
			}
		}
	}
}

// runJob submits one interpret job, polls it to done and streams its
// regions back, returning their digests.
func (s *regionsSystem) runJob(tr *tracer, xs []mat.Vec) ([]uint64, error) {
	client := s.lb.client
	var v jobs.View
	var err error
	tr.timed("jobs.submit", func() { v, err = jobs.Submit(client, jobs.OpInterpret, xs) })
	if err != nil {
		return nil, err
	}
	for v.Status != jobs.StatusDone {
		if v.Status == jobs.StatusFailed {
			return nil, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
		}
		tr.timed("jobs.pause", func() { time.Sleep(pollPause) })
		id := v.ID
		tr.timed("jobs.poll", func() { v, err = jobs.Poll(client, id) })
		s.polls++
		if err != nil {
			return nil, err
		}
	}
	var digests []uint64
	tr.timed("jobs.stream", func() {
		err = jobs.StreamRegions(client, v.ID, 0, -1, func(_ int, rs []jobs.Region) error {
			for _, r := range rs {
				digests = append(digests, regionDigest(r.Probe, r))
			}
			return nil
		})
	})
	return digests, err
}

// verify checks every streamed region bit for bit against openbox.Extract
// on a white box of its own, and that each job streamed exactly one region
// per distinct activation pattern, in submission order. Each distinct
// instance is extracted once, on two goroutines; the oracle keeps a digest
// of its expected region bits, not the region.
func (s *regionsSystem) verify(o *outcome) {
	net := seededNet(s.t.seed, 784, 256, 128, 100, 10)
	type want struct {
		key    string
		digest uint64
		err    error
	}
	wants := make([]want, len(s.t.xs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < len(s.t.xs); id += 2 {
				lin, err := openbox.Extract(net, s.t.xs[id])
				if err != nil {
					wants[id].err = err
					continue
				}
				wants[id] = want{key: lin.Key, digest: regionDigest(s.t.xs[id], relativeForm(lin))}
			}
		}(w)
	}
	wg.Wait()
	regions := 0
	for j, ids := range s.t.jobs {
		if s.errs[j] != nil {
			continue
		}
		got := s.streamed[j]
		regions += len(got)
		// The first instance of each distinct region is its probe; every
		// slot sharing the region fails with it.
		var firsts []int
		members := make(map[string][]int)
		for k, id := range ids {
			key := wants[id].key
			if len(members[key]) == 0 {
				firsts = append(firsts, id)
			}
			members[key] = append(members[key], j*jobSize+k)
		}
		if len(got) != len(firsts) {
			for k := range ids {
				o.wrong(j*jobSize+k, fmt.Sprintf("job %d streamed %d regions, want %d", j, len(got), len(firsts)))
			}
			continue
		}
		for r, id := range firsts {
			w := wants[id]
			cause := ""
			switch {
			case w.err != nil:
				cause = fmt.Sprintf("white box: %v", w.err)
			case got[r] != w.digest:
				cause = "streamed probe, RelW or RelB bits differ from openbox.Extract"
			}
			if cause != "" {
				for _, slot := range members[w.key] {
					o.wrong(slot, fmt.Sprintf("job %d, region %d of instance %d: %s", j, r, id, cause))
				}
			}
		}
	}
	o.exact["regions_streamed"] = int64(regions)
}

// relativeForm rebases a region classifier onto the class-0-relative form
// interpret jobs stream: RelW[c] = W_c − W_0, RelB[c] = b_c − b_0.
func relativeForm(lin *plm.Linear) jobs.Region {
	C := lin.Classes()
	r := jobs.Region{RelW: make([][]float64, C), RelB: make([]float64, C)}
	w0 := lin.W.RawRow(0)
	r.RelW[0] = mat.NewVec(lin.Dim())
	for c := 1; c < C; c++ {
		r.RelW[c] = lin.W.Row(c).SubInPlace(w0)
		r.RelB[c] = lin.B[c] - lin.B[0]
	}
	return r
}

// digestSeed keys every region digest of the process.
var digestSeed = maphash.MakeSeed()

// regionDigest hashes the Float64bits of a probe and a region's RelW and
// RelB, with their shapes, so two regions compare bit for bit through their
// digests. The client digests each region as it streams in, so a run keeps
// 8 bytes per region instead of the region's 60 KB.
func regionDigest(probe []float64, r jobs.Region) uint64 {
	var h maphash.Hash
	h.SetSeed(digestSeed)
	count := func(n int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(n))
		h.Write(b[:])
	}
	row := func(v []float64) {
		count(len(v))
		if len(v) > 0 {
			// The in-memory bytes of a []float64 are its Float64bits.
			h.Write(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
		}
	}
	row(probe)
	count(len(r.RelW))
	for _, w := range r.RelW {
		row(w)
	}
	row(r.RelB)
	return h.Sum64()
}

func (s *regionsSystem) close() error {
	err := s.lb.close()
	if cerr := s.atlas.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
