package obsv

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryKinds(t *testing.T) {
	r := NewRegistry()
	pkts := int64(3)
	r.Func("pkts", func() int64 { return pkts })
	pkts += 4
	r.Func("occ", func() int64 { return 9 })
	r.Func("occ", func() int64 { return 5 }) // re-registering replaces the function
	var live int64 = 42
	r.Func("live", func() int64 { return live })
	h := r.Histogram("fill", []int64{1, 8, 32})
	for _, v := range []int64{0, 1, 2, 9, 40} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 52 {
		t.Errorf("histogram count=%d sum=%d, want 5/52", h.Count(), h.Sum())
	}

	want := "fill count=5 sum=52 buckets=le1:2,le8:1,le32:1,inf:1\nlive 42\nocc 5\npkts 7\n"
	if got := r.String(); got != want {
		t.Errorf("rendering drifted:\n got %q\nwant %q", got, want)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Func("x", func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("cross-kind reuse of a name did not panic")
		}
	}()
	r.Histogram("x", nil)
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				n.Add(1)
				r.Func("n", n.Load)
				r.Histogram("h", []int64{10}).Observe(int64(j % 20))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()["n"]; got != int64(8000) {
		t.Errorf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Func("served", func() int64 { return 12 })
	r.Histogram("fill", []int64{4}).Observe(2)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("handler emitted invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if string(got["served"]) != "12" {
		t.Errorf("served = %s, want 12", got["served"])
	}
	var hs HistogramSnapshot
	if err := json.Unmarshal(got["fill"], &hs); err != nil {
		t.Fatalf("histogram snapshot: %v", err)
	}
	if hs.Count != 1 || len(hs.Counts) != 2 {
		t.Errorf("histogram snapshot %+v", hs)
	}
}

func TestNilMetricsAreInert(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram observed something")
	}
}

func TestObserverValidate(t *testing.T) {
	var o *Observer
	if err := o.Validate(); err != nil {
		t.Errorf("nil observer invalid: %v", err)
	}
	if o.Tracing() || o.Metrics() {
		t.Error("nil observer claims instruments")
	}
	bad := &Observer{LogEvery: -time.Second}
	if err := bad.Validate(); err == nil {
		t.Error("negative log interval accepted")
	}
	ok := &Observer{Tracer: NewTracer(0), Registry: NewRegistry(), LogEvery: time.Second}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid observer rejected: %v", err)
	}
	if !ok.Tracing() || !ok.Metrics() {
		t.Error("enabled observer claims no instruments")
	}
}
