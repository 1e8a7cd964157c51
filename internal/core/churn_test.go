package core

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/timeseries"
)

// TestAdmitRetireChurnStaysBounded cycles one healthy and one quarantined
// instance through 2,000 admit/retire rounds. Nothing of the retired
// instances may linger: the per-instance records stay bounded by the
// resident count, neither Quarantined nor /v1/health lists a retired id,
// and a later quarantined arrival's fallback trace is exactly the mean of
// the current healthy same-service residents — not skewed by the thousands
// of retired copies of the churned instance.
func TestAdmitRetireChurnStaysBounded(t *testing.T) {
	rt, _, held, trainEnd := admissionFixture(t)
	healthy := held[0]
	const ghost = "ghost-churn" // never reported: quarantined on admission
	h := HTTPHandler(rt)
	for i := 0; i < 2000; i++ {
		if _, err := rt.AdmitInstance(healthy.ID, healthy.Service, trainEnd, 2); err != nil {
			t.Fatalf("cycle %d: admit %q: %v", i, healthy.ID, err)
		}
		if _, err := rt.AdmitInstance(ghost, healthy.Service, trainEnd, 2); err != nil {
			t.Fatalf("cycle %d: admit %q: %v", i, ghost, err)
		}
		if _, err := rt.RetireInstance(healthy.ID); err != nil {
			t.Fatalf("cycle %d: retire %q: %v", i, healthy.ID, err)
		}
		if _, err := rt.RetireInstance(ghost); err != nil {
			t.Fatalf("cycle %d: retire %q: %v", i, ghost, err)
		}
		if i%500 != 0 {
			continue
		}
		for _, id := range rt.Quarantined() {
			if id == ghost {
				t.Fatalf("cycle %d: Quarantined lists retired %q", i, ghost)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
		var body struct {
			Quarantined []string `json:"quarantined"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("cycle %d: /v1/health: %v (%s)", i, err, rec.Body.String())
		}
		for _, id := range body.Quarantined {
			if id == ghost {
				t.Fatalf("cycle %d: /v1/health lists retired %q", i, ghost)
			}
		}
	}

	residents := rt.Tree().InstanceCount()
	rt.mu.Lock()
	services, quality := len(rt.services), len(rt.quality)
	rt.mu.Unlock()
	if services > residents || quality > residents {
		t.Fatalf("after churn: %d services and %d quality entries for %d residents", services, quality, residents)
	}

	// The expected reference: the mean, in tree order, of every current
	// resident of the service whose own averaged I-trace clears the floor.
	var peers []timeseries.Series
	rt.mu.Lock()
	for _, id := range rt.tree.AllInstances() {
		if rt.services[id] != healthy.Service {
			continue
		}
		tr, q, err := rt.residentTrace(id, trainEnd, 2)
		if err != nil {
			rt.mu.Unlock()
			t.Fatal(err)
		}
		if !rt.belowFloor(q) {
			peers = append(peers, tr)
		}
	}
	rt.mu.Unlock()
	want, ok := meanSeries(peers)
	if !ok {
		t.Fatalf("service %q has no healthy residents", healthy.Service)
	}

	const late = "ghost-late"
	if _, err := rt.AdmitInstance(late, healthy.Service, trainEnd, 2); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	got := rt.onlineTraces[late]
	rt.mu.Unlock()
	if got.Len() != want.Len() {
		t.Fatalf("fallback trace has %d samples, want %d", got.Len(), want.Len())
	}
	for i, v := range want.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(v) {
			t.Fatalf("fallback sample %d = %v, want the healthy same-service mean %v", i, got.Values[i], v)
		}
	}
}
