package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/apitest"
)

// TestErrorMappingTable pins the HTTP error contract on every endpoint:
// an unknown sketch name is 404 everywhere, a duplicate create is 409,
// and a validation failure is 400 — never the 409 create once answered
// for bad configs. The table lives in internal/apitest so the cluster
// agent's reads are held to the same cases.
func TestErrorMappingTable(t *testing.T) {
	_, ts := testServer(t)
	apitest.Fixtures(t, ts.URL)
	apitest.Run(t, ts.URL, apitest.ErrorCases)
}

// TestStatusFor pins the sentinel→status table directly, including
// wrapped sentinels.
func TestStatusFor(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Create(SketchConfig{Name: "a", Kind: KindUnit, Bins: 8}); err != nil {
		t.Fatal(err)
	}
	_, dup := reg.Create(SketchConfig{Name: "a", Kind: KindUnit, Bins: 8})
	if got := statusFor(dup); got != http.StatusConflict {
		t.Errorf("statusFor(%v) = %d, want 409", dup, got)
	}
	_, bad := reg.Create(SketchConfig{Name: "b", Kind: "bogus", Bins: 8})
	if got := statusFor(bad); got != http.StatusBadRequest {
		t.Errorf("statusFor(%v) = %d, want 400", bad, got)
	}
	if !strings.Contains(dup.Error(), "a") {
		t.Errorf("duplicate error %q does not name the sketch", dup)
	}
	miss := ErrNotFound
	if got := statusFor(miss); got != http.StatusNotFound {
		t.Errorf("statusFor(ErrNotFound) = %d, want 404", got)
	}
}
