package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/store"
)

// TestWarmHitCompletesInSubmit: a request the store already satisfies is
// finished by the time Submit returns — Done closed, result set, counted as
// cached, with the trace admitted(warm) → store_hit → done(cached) — so an
// HTTP client never sees a 202 for it.
func TestWarmHitCompletesInSubmit(t *testing.T) {
	sched := newTestScheduler(t, "")
	spec := ConfigSpec{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64, Seed: 23, Policy: "eraser"}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sched.Run(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	cached := func() float64 {
		return mustValue(t, scrapeRegistry(t, sched.Registry()), "leak_sched_jobs_total", "outcome", "cached")
	}
	before := cached()

	j, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("warm hit returned from Submit with Done still open")
	}
	if st := j.Status(); st.State != "done" || !st.Cached || st.UnitsExecuted != 0 {
		t.Fatalf("warm hit status %+v, want done and cached", st)
	}
	var kinds, notes []string
	for _, ev := range j.Trace().Events {
		kinds = append(kinds, ev.Kind)
		notes = append(notes, ev.Note)
	}
	if want := []string{SpanAdmitted, SpanStoreHit, SpanDone}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("warm trace %v, want %v", kinds, want)
	}
	if want := []string{"warm", "", "cached"}; !reflect.DeepEqual(notes, want) {
		t.Fatalf("warm trace notes %q, want %q", notes, want)
	}
	if got := cached(); got != before+1 {
		t.Fatalf("cached jobs counter %v -> %v, want +1", before, got)
	}
	j.Cancel() // no context behind a warm hit: a no-op
	res, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, cold) {
		t.Fatalf("warm result differs from the cold run:\n got %+v\nwant %+v", res, cold)
	}
	if n := sched.Inflight(); n != 0 {
		t.Fatalf("warm hit left %d in-flight entries", n)
	}

	srv := httptest.NewServer(NewHandler(sched))
	t.Cleanup(srv.Close)
	body, err := json.Marshal(RunRequest{Config: spec})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		rr := submit(t, srv, string(body))
		resp, err := http.Get(srv.URL + "/v1/result?job=" + rr.Job)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: first GET of warm job %s answered %d, want 200", i, rr.Job, resp.StatusCode)
		}
	}
}

// TestWarmRetireKeepsColdInflightEntry: warm hits are never registered in the
// in-flight table, so a warm hit retiring under the fingerprint of an
// identical cold job must leave that job's dedupe entry alone. The retires
// race identical submits, which must keep joining the cold job; run under
// -race.
func TestWarmRetireKeepsColdInflightEntry(t *testing.T) {
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	sched := NewWithOptions(st, Options{Workers: 1})
	blocker := &blockingInjector{release: make(chan struct{}), started: make(chan struct{}, 1)}
	sched.SetFaults(blocker)
	cfg := experiment.Config{Distance: 3, Cycles: 2, P: 2e-3, Shots: 2 * 64,
		Seed: 31, Policy: core.PolicyAlways}
	cold, err := sched.Submit(cfg, Precision{})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started // the cold job holds its in-flight entry, mid-chunk
	fp := fingerprint(cold.Key, cfg, Precision{})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm := &Job{ID: "warm", Key: cold.Key, cfg: cfg, done: make(chan struct{}),
				warm: true, trace: newTrace(nil)}
			sched.retire(warm, fp)
			j, err := sched.Submit(cfg, Precision{})
			if err != nil {
				t.Error(err)
				return
			}
			if j != cold {
				t.Errorf("identical submit after a warm retire got job %s, want the in-flight cold job %s", j.ID, cold.ID)
			}
		}()
	}
	wg.Wait()
	if n := sched.Inflight(); n != 1 {
		t.Fatalf("in-flight entries = %d, want the cold job's 1", n)
	}
	close(blocker.release)
	if _, err := cold.Result(); err != nil {
		t.Fatal(err)
	}
	if n, p := sched.Inflight(), sched.Pending(); n != 0 || p != 0 {
		t.Fatalf("after the cold job: %d in flight, %d pending; want 0, 0", n, p)
	}
}

// TestResultBodyMatchesWriteJSON: /v1/result carries the result encoded once
// as compact JSON, and it decodes to exactly what Result.WriteJSON (the
// indented file format) writes for the same tally. The tally is a
// golden-corpus case under DQLR, so the policy name comes from the DQLR
// column of the name table.
func TestResultBodyMatchesWriteJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "experiment", "testdata", "golden", "ERASER-dqlr.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Key   string            `json:"key"`
		Tally *experiment.Tally `json:"tally"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	spec := ConfigSpec{Distance: 3, Cycles: 2, P: 5e-3, Seed: 2024, Policy: "eraser", Protocol: "dqlr",
		Shots: golden.Tally.Covered.Count() * golden.Tally.UnitShots}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if key := cfg.Key(); key != golden.Key {
		t.Fatalf("spec key %s, golden key %s", key, golden.Key)
	}
	srv, sched := newTestServer(t)
	if _, err := sched.Store().Merge(golden.Key, cfg.Describe(), golden.Tally); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(RunRequest{Config: spec})
	if err != nil {
		t.Fatal(err)
	}
	rr := submit(t, srv, string(body))
	resp, err := http.Get(srv.URL + "/v1/result?job=" + rr.Job)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/result: %d", resp.StatusCode)
	}
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSuffix(raw.Bytes(), []byte("\n")), compact.Bytes()) {
		t.Fatalf("/v1/result body is not compact JSON:\n%s", raw.Bytes())
	}
	var got ResultResponse
	if err := json.Unmarshal(raw.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	res := golden.Tally.ResultFor(cfg)
	var file bytes.Buffer
	if err := res.WriteJSON(&file); err != nil {
		t.Fatal(err)
	}
	var fileCompact bytes.Buffer
	if err := json.Compact(&fileCompact, file.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Result, fileCompact.Bytes()) {
		t.Fatalf("result field differs from WriteJSON beyond whitespace:\n got %s\nwant %s", got.Result, fileCompact.Bytes())
	}
	var fromHTTP, fromFile experiment.ResultJSON
	if err := json.Unmarshal(got.Result, &fromHTTP); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file.Bytes(), &fromFile); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromHTTP, fromFile) {
		t.Fatalf("decoded result differs:\n got %+v\nwant %+v", fromHTTP, fromFile)
	}
	if fromHTTP.Policy != "ERASER-DQLR" {
		t.Fatalf("policy %q, want ERASER-DQLR", fromHTTP.Policy)
	}
}
