package jobs

import (
	"bytes"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/nn"
	"repro/internal/openbox"
	"repro/internal/wire"
)

// censusWhite builds a cached white box whose region store the census
// sweeps populate — the store a plmserve -atlas deployment would back with
// the disk log.
func censusWhite(seed int64) *openbox.PLNN {
	net := nn.New(rand.New(rand.NewSource(seed)), 6, 10, 3)
	return openbox.NewCachedPLNNOpts(net, openbox.StoreOptions{Capacity: 1024})
}

func TestCensusJobPopulatesRegionStore(t *testing.T) {
	white := censusWhite(31)
	r, err := NewRunner(white, white, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	anchors := jobProbes(rand.New(rand.NewSource(32)), 3, white.Dim())
	id, err := r.SubmitN(OpCensus, anchors, 40)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, r, id)
	if v.Status != StatusDone {
		t.Fatalf("census ended %s (%s)", v.Status, v.Error)
	}
	if v.Census == nil {
		t.Fatal("done census view carries no report")
	}
	if v.Census.Probes != 40 {
		t.Fatalf("census swept %d probes, want 40", v.Census.Probes)
	}
	if v.Census.DistinctRegions < 1 || v.Census.DistinctRegions > 40 {
		t.Fatalf("census found %d distinct regions from 40 probes", v.Census.DistinctRegions)
	}
	// The job's real output is the populated store.
	if st := white.RegionStoreStats(); st.Size != v.Census.DistinctRegions {
		t.Fatalf("store holds %d regions, census reported %d", st.Size, v.Census.DistinctRegions)
	}
	if done, total := r.CensusProgress(); done != 40 || total != 40 {
		t.Fatalf("census progress %d/%d, want 40/40", done, total)
	}
}

func TestCensusJobDefaultBudgetAndValidation(t *testing.T) {
	white := censusWhite(33)
	r, err := NewRunner(white, white, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	anchors := jobProbes(rand.New(rand.NewSource(34)), 2, white.Dim())
	// Submit (no explicit budget) defaults to 64 probes per anchor.
	id, err := r.Submit(OpCensus, anchors)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, r, id)
	if v.Status != StatusDone {
		t.Fatalf("census ended %s (%s)", v.Status, v.Error)
	}
	if v.Census == nil || v.Census.Probes != 64*len(anchors) {
		t.Fatalf("default-budget census = %+v, want %d probes", v.Census, 64*len(anchors))
	}

	// Census needs the white-box side, like interpret.
	black := jobModel(35)
	r2, err := NewRunner(black, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Submit(OpCensus, anchors); err == nil {
		t.Fatal("census accepted without a white-box replica")
	}
}

func TestCensusJobHTTPSubmit(t *testing.T) {
	white := censusWhite(36)
	r, _, c := streamServer(t, white, white, 0)
	anchors := jobProbes(rand.New(rand.NewSource(37)), 2, white.Dim())

	// The dialed client negotiated the binary codec, so SubmitCensus ships
	// the probe budget in the X-PLM-Job-Probes header.
	if c.CodecName() != wire.NameBinary {
		t.Fatalf("client negotiated %s, want binary", c.CodecName())
	}
	ack, err := SubmitCensus(c, anchors, 24)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Op != OpCensus {
		t.Fatalf("ack op = %s", ack.Op)
	}
	v := waitDone(t, r, ack.ID)
	if v.Status != StatusDone || v.Census == nil || v.Census.Probes != 24 {
		t.Fatalf("binary census ended %s census=%+v, want 24 probes", v.Status, v.Census)
	}
	// The poll view carries the report over the wire too.
	polled, err := Poll(c, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.Census == nil || polled.Census.Probes != 24 {
		t.Fatalf("polled census = %+v", polled.Census)
	}

	// JSON submit carries the budget in the body.
	body := []byte(`{"op":"census","xs":[[0,0,0,0,0,0]],"n":16}`)
	resp, err := c.HTTPClient().Post(c.BaseURL()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var jsonAck View
	if err := wire.DecodeJSON(resp.Body, wire.DefaultMaxBody, &jsonAck, false); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("JSON census submit answered %s", resp.Status)
	}
	if v := waitDone(t, r, jsonAck.ID); v.Census == nil || v.Census.Probes != 16 {
		t.Fatalf("JSON census = %+v, want 16 probes", v.Census)
	}

	// A garbage probe-budget header is a 400, not a silent default.
	var buf bytes.Buffer
	rows := [][]float64{anchors[0]}
	if err := c.Codec().EncodeMat(&buf, "xs", rows); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL()+"/v1/jobs", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", c.Codec().ContentType())
	req.Header.Set(OpHeader, OpCensus)
	req.Header.Set(NHeader, "bogus")
	badResp, err := c.HTTPClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus %s answered %s, want 400", NHeader, badResp.Status)
	}
}
