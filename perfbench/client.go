package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/service"
)

// newClient returns the benchmark's single HTTP client, capped at conns
// connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// bodyBufs recycles response-body buffers, so reading replies adds little
// garbage to the heap the server under test shares with the clients. json
// decoding copies what it keeps, so a buffer is free again once do returns.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do sends one request and decodes a JSON reply into out (when non-nil),
// failing on any status outside want.
func do(c *http.Client, method, url string, body []byte, out any, want ...int) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer bodyBufs.Put(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	data := buf.Bytes()
	ok := false
	for _, w := range want {
		ok = ok || resp.StatusCode == w
	}
	if !ok {
		return resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// campaignRun is one campaign as its client saw it.
type campaignRun struct {
	sub     campaign.SubmitResponse
	events  []campaign.Event
	started time.Time     // POST sent
	posted  time.Time     // POST answered
	elapsed time.Duration // POST sent to last stream event received
	final   map[string]campaign.Event
}

// shots sums the final shot counts over the campaign's points.
func (r *campaignRun) shots() int {
	n := 0
	for _, ev := range r.final {
		n += ev.Shots
	}
	return n
}

// runCampaign POSTs the manifest and consumes the campaign's event stream to
// its end. Any point ending in a state other than "done" is an error.
func runCampaign(c *http.Client, base string, man campaign.Manifest) (*campaignRun, error) {
	body, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	run := &campaignRun{final: make(map[string]campaign.Event)}
	run.started = time.Now()
	if _, err := do(c, http.MethodPost, base+"/v1/campaign", body, &run.sub, http.StatusAccepted); err != nil {
		return nil, err
	}
	run.posted = time.Now()
	resp, err := c.Get(base + "/v1/campaign/stream?id=" + run.sub.Campaign)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("campaign stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev campaign.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("campaign stream: %w", err)
		}
		run.events = append(run.events, ev)
		run.final[ev.Point] = ev
	}
	run.elapsed = time.Since(run.started)
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign stream: %w", err)
	}
	if len(run.final) != len(run.sub.Points) {
		return nil, fmt.Errorf("campaign stream ended with %d of %d points reported", len(run.final), len(run.sub.Points))
	}
	for pt, ev := range run.final {
		if ev.State != "done" {
			return nil, fmt.Errorf("campaign point %s ended %s: %s", pt, ev.State, ev.Error)
		}
	}
	return run, nil
}

// warmReply is what one warm request returned: its status and the result
// fields the gate checks.
type warmReply struct {
	status service.Status
	result warmResult
}

// warmResult holds the fields of experiment.ResultJSON that gateWarm
// compares; decoding only these keeps the client's work per reply small.
type warmResult struct {
	Shots int     `json:"shots"`
	LER   float64 `json:"ler"`
}

// warmRequest POSTs one /v1/run request and GETs its result, re-polling
// while the job is still running. When tracing, the request becomes a span
// with one child per HTTP call.
func warmRequest(c *http.Client, base string, body []byte, tr *tracer, ref string) (warmReply, error) {
	t0 := time.Now()
	req := -1
	if tr.enabled() {
		req = tr.open("warm_request", ref, 0, t0)
		defer func() { tr.close(req, time.Now()) }()
	}
	var sub service.RunResponse
	if _, err := do(c, http.MethodPost, base+"/v1/run", body, &sub, http.StatusAccepted); err != nil {
		return warmReply{}, err
	}
	if req >= 0 {
		t1 := time.Now()
		tr.add("http.post_run", sub.Job, req, t0, t1)
		t0 = t1
	}
	for {
		var rr service.ResultResponse
		code, err := do(c, http.MethodGet, base+"/v1/result?job="+sub.Job, nil, &rr, http.StatusOK, http.StatusAccepted)
		if err != nil {
			return warmReply{}, err
		}
		if req >= 0 {
			t1 := time.Now()
			tr.add("http.get_result", sub.Job, req, t0, t1)
			t0 = t1
		}
		if code == http.StatusAccepted {
			continue
		}
		rep := warmReply{status: rr.Status}
		if err := json.Unmarshal(rr.Result, &rep.result); err != nil {
			return warmReply{}, fmt.Errorf("result of %s: %w", sub.Job, err)
		}
		return rep, nil
	}
}

// scrape fetches and parses the server's /metrics exposition.
func scrape(c *http.Client, base string) (*metrics.Snapshot, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// jobTrace fetches one job's span trace.
func jobTrace(c *http.Client, base, job string) (service.TraceView, error) {
	var tv service.TraceView
	_, err := do(c, http.MethodGet, base+"/v1/trace?job="+job, nil, &tv, http.StatusOK)
	return tv, err
}
