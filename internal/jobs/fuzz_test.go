package jobs

import (
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzJobWindow drives the GET /jobs/{id} window parser with arbitrary
// offset/limit strings against results of 0..64 items: parseWindow either
// rejects the parameters, or slice returns 0 <= start <= end <= n, so the
// handler's result slicing can never go out of range.
func FuzzJobWindow(f *testing.F) {
	f.Add("", "", uint8(0))
	f.Add("3", "4", uint8(10))
	f.Add("50", "", uint8(10))
	f.Add("0", "0", uint8(1))
	f.Add("-1", "", uint8(5))
	f.Add("abc", "x", uint8(5))
	f.Add("1", "9223372036854775807", uint8(5))
	f.Fuzz(func(t *testing.T, offset, limit string, size uint8) {
		n := int(size % 65)
		q := url.Values{}
		q.Set("offset", offset)
		q.Set("limit", limit)
		w, err := parseWindow(httptest.NewRequest("GET", "/v1/jobs/job-1?"+q.Encode(), nil))
		if err != nil {
			return
		}
		start, end := w.slice(n)
		if start < 0 || start > end || end > n {
			t.Fatalf("offset %q limit %q over %d items sliced [%d, %d)", offset, limit, n, start, end)
		}
	})
}
