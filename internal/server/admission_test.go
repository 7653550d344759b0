package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	uss "repro"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// postText posts a newline-text ingest body and returns the response.
func postText(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestIngestTokenBucket429 drives a sketch past its configured rate:
// the first burst-sized batch is admitted, the immediate follow-up is
// shed with 429 and a positive Retry-After hint.
func TestIngestTokenBucket429(t *testing.T) {
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, IngestRateRows: 5, IngestBurstRows: 10})
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})

	body := strings.Repeat("a\n", 10)
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst-sized batch: status %d, want 200", resp.StatusCode)
	}
	resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate batch: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 carried Retry-After %q, want a positive hint", ra)
	}
	if got := s.met.shed429.Load(); got != 1 {
		t.Fatalf("shed429 = %d, want 1", got)
	}
	// The refusal did not consume tokens: after the deficit refills the
	// same batch is admitted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", body); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bucket never refilled")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestInflightBudgetSheds503 bounds in-flight bytes so far below the
// request body that every mutation is shed with 503 + Retry-After,
// while queries keep answering.
func TestInflightBudgetSheds503(t *testing.T) {
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MaxInflightBytes: 8})
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})

	resp := postText(t, ts.URL+"/v1/sketches/x/ingest", strings.Repeat("a\n", 50))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-budget body: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed lost its Retry-After hint")
	}
	if got := s.met.shed503.Load(); got != 1 {
		t.Fatalf("shed503 = %d, want 1", got)
	}
	if !s.adm.shedding() {
		t.Fatal("shedding() = false right after a shed")
	}
	if got := s.adm.inflight.Load(); got != 0 {
		t.Fatalf("inflight after shed = %d, want 0 (charge must roll back)", got)
	}
	// A body under the budget still flows.
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "a\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", resp.StatusCode)
	}
	// Reads are never admission-gated.
	if items := topk(t, ts, "x", 5); len(items) == 0 {
		t.Fatal("topk empty while shedding mutations")
	}
}

// TestReadOnlyMutationsCarryRetryAfter arms disk.enospc on a durable
// server: every mutation class answers 503 with Retry-After while reads
// stay 200, and the store heals once space returns.
func TestReadOnlyMutationsCarryRetryAfter(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever, DiskCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "a\nb\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: status %d", resp.StatusCode)
	}

	if err := faultinject.Enable("disk.enospc"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what string
		do   func() *http.Response
	}{
		{"ingest", func() *http.Response {
			return postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "c\n")
		}},
		{"create", func() *http.Response {
			return doJSON(t, "POST", ts.URL+"/v1/sketches", SketchConfig{Name: "y", Kind: KindUnit, Bins: 8}, nil)
		}},
		{"delete", func() *http.Response {
			return doJSON(t, "DELETE", ts.URL+"/v1/sketches/x", nil, nil)
		}},
	} {
		resp := tc.do()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while read-only: status %d, want 503", tc.what, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while read-only lost its Retry-After hint", tc.what)
		}
	}
	// Reads of the surviving state stay exact.
	if items := topk(t, ts, "x", 5); len(items) != 2 {
		t.Fatalf("topk while read-only = %d items, want 2", len(items))
	}
	var ready map[string]any
	doJSON(t, "GET", ts.URL+"/readyz", nil, &ready)
	if ready["pressure"] != "read_only" || ready["read_only"] != true {
		t.Fatalf("readyz under enospc = %+v, want pressure=read_only", ready)
	}

	faultinject.Reset()
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "c\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after space returned: status %d", resp.StatusCode)
	}
}

// TestDemoteRevive pushes a durable server over its memory watermark,
// demotes an idle sketch by hand (the pressure loop's path), and checks
// that list/info answers from the cold stats, checkpoints stay correct,
// and the next read revives the exact state.
func TestDemoteRevive(t *testing.T) {
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MemorySoftBytes: 1, ColdAfter: time.Nanosecond})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)

	create(t, ts, SketchConfig{Name: "x", Kind: KindWeighted, Bins: 32, Seed: 7})
	var rows strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rows, "item-%d\t%d\n", i%11, 1+i%3)
	}
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", rows.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	before := topk(t, ts, "x", 11)
	infoBefore := doInfo(t, ts, "x")

	time.Sleep(time.Millisecond) // outlive ColdAfter
	s.maybeDemote()
	e, _ := s.reg.Get("x")
	if !e.cold.Load() {
		t.Fatal("maybeDemote left the idle sketch live over the watermark")
	}
	if _, err := os.Stat(e.coldPath); err != nil {
		t.Fatalf("cold blob missing: %v", err)
	}
	if got := s.met.demotions.Load(); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}

	// info answers from the cold stats without reviving.
	infoCold := doInfo(t, ts, "x")
	if e.cold.Load() == false {
		t.Fatal("info revived the sketch")
	}
	if infoCold.Size != infoBefore.Size || infoCold.Total != infoBefore.Total {
		t.Fatalf("cold info = (size %d, total %g), want (%d, %g)",
			infoCold.Size, infoCold.Total, infoBefore.Size, infoBefore.Total)
	}
	// Checkpoints read the cold blob directly.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a cold sketch: %v", err)
	}

	// The next data read revives the exact state.
	after := topk(t, ts, "x", 11)
	if e.cold.Load() {
		t.Fatal("topk did not revive the sketch")
	}
	if got := s.met.revivals.Load(); got != 1 {
		t.Fatalf("revivals = %d, want 1", got)
	}
	if len(after) != len(before) {
		t.Fatalf("revived topk has %d items, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("revived topk[%d] = %+v, want %+v", i, after[i], before[i])
		}
	}
	if _, err := os.Stat(e.coldPath); !os.IsNotExist(err) {
		t.Fatalf("cold blob not removed after revival: %v", err)
	}

	// Writes keep landing on the revived sketch.
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "item-0\t1\n"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after revival: status %d", resp.StatusCode)
	}
}

// TestDemoteSurvivesRestart demotes a sketch, shuts the server down
// cleanly (the drain checkpoint must read the cold blob) and recovers:
// the sketch must come back with its exact pre-demotion answers.
func TestDemoteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MemorySoftBytes: 1, ColdAfter: time.Nanosecond})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 32, Seed: 9})
	var rows strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&rows, "item-%d\n", i%13)
	}
	if resp := postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", rows.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	before := topk(t, ts, "x", 13)
	time.Sleep(time.Millisecond)
	s.maybeDemote()
	if e, _ := s.reg.Get("x"); !e.cold.Load() {
		t.Fatal("sketch not demoted")
	}
	shutdown(t, s, ts)

	s2, ts2 := durableServer(t, dir)
	defer shutdown(t, s2, ts2)
	after := topk(t, ts2, "x", 13)
	if len(after) != len(before) {
		t.Fatalf("recovered topk has %d items, want %d", len(after), len(before))
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("recovered topk[%d] = %+v, want %+v", i, after[i], before[i])
		}
	}
}

// TestRestoredSketchIsNotIdle restores a sketch the way cluster boot
// repair does and pushes the server over its memory watermark: with a
// long ColdAfter the just-restored sketch must not be a demotion
// candidate (an unstamped access time would rank it idle since 1970).
func TestRestoredSketchIsNotIdle(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4, MemorySoftBytes: 1, ColdAfter: time.Hour})
	if err := s.AttachStore(st, nil, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	src := uss.New(16, uss.WithSeed(3))
	for i := 0; i < 100; i++ {
		src.Update(fmt.Sprintf("item-%d", i%7))
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cfg := SketchConfig{Name: "restored", Kind: KindUnit, Bins: 16, Seed: 3}
	if err := s.RestoreSketch(cfg, SketchStats{Rows: 100}, blob); err != nil {
		t.Fatal(err)
	}
	s.maybeDemote()
	if e, _ := s.reg.Get("restored"); e.cold.Load() {
		t.Fatal("maybeDemote demoted a just-restored sketch as idle")
	}
	if got := s.met.demotions.Load(); got != 0 {
		t.Fatalf("demotions = %d, want 0", got)
	}
}

// doInfo fetches one sketch's info DTO.
func doInfo(t *testing.T, ts *httptest.Server, name string) sketchInfo {
	t.Helper()
	var out sketchInfo
	doJSON(t, "GET", ts.URL+"/v1/sketches/"+name, nil, &out)
	return out
}

// TestPressureLoopEmergencyCheckpoint verifies the pressure loop
// answers a watermark trip with a checkpoint.
func TestPressureLoopEmergencyCheckpoint(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	rebuilt, err := store.Rebuild(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever, DiskCheckEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{IngestWorkers: 1, QueueDepth: 4})
	if err := s.AttachStore(st, rebuilt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdown(t, s, ts)
	create(t, ts, SketchConfig{Name: "x", Kind: KindUnit, Bins: 16, Seed: 1})

	if err := faultinject.Enable("disk.enospc"); err != nil {
		t.Fatal(err)
	}
	postText(t, ts.URL+"/v1/sketches/x/ingest?sync=1", "a\n") // trips the watermark
	deadline := time.Now().Add(5 * time.Second)
	for s.met.checkpoints.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pressure loop never took the emergency checkpoint")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
