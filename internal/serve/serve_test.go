package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roadknn"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	net := roadknn.GenerateNetwork(300, 7)
	eng := roadknn.NewIMAWith(net, roadknn.Options{Workers: 2, Serving: true})
	s := New(eng, Config{}) // manual ticks
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

func post(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return out
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode, out
}

func TestServeIngestTickSnapshot(t *testing.T) {
	_, hs := newTestServer(t)

	// Ingest a batch: two objects, one 2-NN query, one edge weight.
	resp := post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":1,"frac":0.2}],
		"queries":[{"id":7,"k":2,"edge":0,"frac":0.1}],
		"edges":[{"edge":3,"w":2.5}]
	}`)
	if resp["accepted"].(float64) != 4 {
		t.Fatalf("accepted %v of 4 updates", resp["accepted"])
	}

	// Nothing applied before the tick.
	_, snap := get(t, hs.URL+"/v1/snapshot")
	if len(snap["queries"].([]any)) != 0 {
		t.Fatalf("snapshot has queries before tick: %v", snap)
	}

	tick := post(t, hs.URL+"/v1/tick", "")
	if tick["queries"].(float64) != 1 || tick["timestamp"].(float64) != 1 {
		t.Fatalf("bad tick response: %v", tick)
	}

	_, snap = get(t, hs.URL+"/v1/snapshot")
	qs := snap["queries"].([]any)
	if len(qs) != 1 {
		t.Fatalf("snapshot should hold one query: %v", snap)
	}
	q := qs[0].(map[string]any)
	if q["id"].(float64) != 7 || len(q["neighbors"].([]any)) != 2 {
		t.Fatalf("bad query result: %v", q)
	}

	status, one := get(t, hs.URL+"/v1/result?query=7")
	if status != http.StatusOK {
		t.Fatalf("result status %d", status)
	}
	if one["result"].(map[string]any)["id"].(float64) != 7 {
		t.Fatalf("bad single result: %v", one)
	}
	if status, _ := get(t, hs.URL+"/v1/result?query=99"); status != http.StatusNotFound {
		t.Fatalf("unknown query returned %d, want 404", status)
	}

	// Stats reflect the traffic.
	_, stats := get(t, hs.URL+"/v1/stats")
	if stats["engine"].(string) != "IMA" || stats["steps"].(float64) != 1 {
		t.Fatalf("bad stats: %v", stats)
	}
}

func TestServeLongPollWakesOnTick(t *testing.T) {
	_, hs := newTestServer(t)
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}],"queries":[{"id":1,"k":1,"edge":0,"frac":0.2}]}`)
	first := post(t, hs.URL+"/v1/tick", "")
	epoch := uint64(first["epoch"].(float64))

	// A long-poll for a newer epoch parks until the next tick.
	type polled struct {
		epoch float64
		err   error
	}
	done := make(chan polled, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/snapshot?since=%d&wait_ms=5000", hs.URL, epoch))
		if err != nil {
			done <- polled{err: err}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			done <- polled{err: err}
			return
		}
		done <- polled{epoch: out["epoch"].(float64)}
	}()

	select {
	case p := <-done:
		t.Fatalf("long-poll returned before tick: %+v", p)
	case <-time.After(100 * time.Millisecond):
	}
	post(t, hs.URL+"/v1/tick", "")
	select {
	case p := <-done:
		if p.err != nil {
			t.Fatalf("long-poll failed: %v", p.err)
		}
		if uint64(p.epoch) <= epoch {
			t.Fatalf("long-poll returned stale epoch %v <= %d", p.epoch, epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke after tick")
	}

	// A poll with a timeout returns the current epoch instead of hanging.
	start := time.Now()
	status, _ := get(t, fmt.Sprintf("%s/v1/snapshot?since=%d&wait_ms=50", hs.URL, currentEpoch(t, hs)))
	if status != http.StatusOK {
		t.Fatalf("timeout poll status %d", status)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout poll did not respect wait_ms")
	}
}

// currentEpoch fetches the server's current snapshot epoch.
func currentEpoch(t *testing.T, hs *httptest.Server) uint64 {
	t.Helper()
	_, snap := get(t, hs.URL+"/v1/snapshot")
	return uint64(snap["epoch"].(float64))
}

// streamEvent is one typed SSE frame read off /v1/stream.
type streamEvent struct {
	name string
	data map[string]any
}

// readStream consumes /v1/stream frames into a channel of typed events.
func readStream(t *testing.T, body interface{ Read([]byte) (int, error) }) chan streamEvent {
	t.Helper()
	events := make(chan streamEvent, 16)
	go func() {
		sc := bufio.NewScanner(body)
		name := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				var m map[string]any
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &m); err != nil {
					return
				}
				events <- streamEvent{name: name, data: m}
			}
		}
		close(events)
	}()
	return events
}

func nextStreamEvent(t *testing.T, events chan streamEvent) streamEvent {
	t.Helper()
	select {
	case e, ok := <-events:
		if !ok {
			t.Fatal("stream closed early")
		}
		return e
	case <-time.After(5 * time.Second):
		t.Fatal("no stream event")
		return streamEvent{}
	}
}

// TestServeStreamDeliversEpochs covers the delta-less fallback of
// /v1/stream: an engine without Options{Deltas} has no per-epoch change
// sets, so the subscriber gets the full (filtered) snapshot as a "resync"
// event at every epoch — the pre-delta behavior — and is never evicted for
// it.
func TestServeStreamDeliversEpochs(t *testing.T) {
	s, hs := newTestServer(t)
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}],"queries":[{"id":3,"k":1,"edge":0,"frac":0.2}]}`)
	post(t, hs.URL+"/v1/tick", "")

	resp, err := http.Get(hs.URL + "/v1/stream?query=3")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	events := readStream(t, resp.Body)

	// The stream replays the current epoch immediately, then one event per
	// tick.
	first := nextStreamEvent(t, events)
	if first.name != "resync" {
		t.Fatalf("opening event %q, want resync", first.name)
	}
	s.Tick()
	second := nextStreamEvent(t, events)
	if second.name != "resync" {
		t.Fatalf("delta-less engine sent %q, want full-resend resync", second.name)
	}
	if second.data["epoch"].(float64) <= first.data["epoch"].(float64) {
		t.Fatalf("stream epochs not increasing: %v then %v", first.data, second.data)
	}
	qs := second.data["queries"].([]any)
	if len(qs) != 1 || qs[0].(map[string]any)["id"].(float64) != 3 {
		t.Fatalf("stream carries wrong queries: %v", second.data)
	}
}

// TestServeRejectsMalformedBatches: HTTP input is untrusted — out-of-range
// ids and non-finite values must be rejected with 400 before reaching the
// batcher, not crash the stepper at the next tick.
func TestServeRejectsMalformedBatches(t *testing.T) {
	s, hs := newTestServer(t)
	bad := []string{
		`{"edges":[{"edge":2000000000,"w":1}]}`,
		`{"edges":[{"edge":-1,"w":1}]}`,
		`{"edges":[{"edge":3,"w":0}]}`,
		`{"edges":[{"edge":3,"w":-2}]}`,
		`{"edges":[{"edge":3,"w":1e999}]}`, // decodes as +Inf? no: json rejects; use large finite
		`{"objects":[{"id":1,"edge":99999,"frac":0.5}]}`,
		`{"objects":[{"id":1,"edge":0,"frac":1.5}]}`,
		`{"objects":[{"id":1,"edge":0,"frac":-0.1}]}`,
		`{"queries":[{"id":1,"k":2,"edge":0,"frac":2}]}`,
		`{"queries":[{"id":1,"edge":0,"frac":0.5}]}`,     // install without k
		`{"queries":[{"id":1,"k":0,"edge":0,"frac":1}]}`, // install with k=0
		`{"not_a_field":[]}`,
	}
	for _, body := range bad {
		resp, err := http.Post(hs.URL+"/v1/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %s accepted with status %d, want 400", body, resp.StatusCode)
		}
	}
	// Nothing leaked into the batcher; a tick still works and the valid
	// query flow is unaffected.
	post(t, hs.URL+"/v1/updates", `{"queries":[{"id":1,"k":1,"edge":0,"frac":0.5}],"objects":[{"id":1,"edge":1,"frac":0.5}]}`)
	s.Tick()
	if status, _ := get(t, hs.URL+"/v1/result?query=1"); status != http.StatusOK {
		t.Fatalf("valid flow broken after rejected batches: %d", status)
	}
	// A move without k is fine once the query is registered.
	post(t, hs.URL+"/v1/updates", `{"queries":[{"id":1,"edge":2,"frac":0.5}]}`)
	s.Tick()
}

// TestServeRejectsEndReinstallWithoutK: the Batcher turns an end followed
// by a re-report within one tick into terminate+install, consuming the
// re-report's k — so a k-less re-report after an end (in the same batch,
// a later batch the same tick, or against a pending install) must be
// rejected with 400, not panic the stepper at the next tick.
func TestServeRejectsEndReinstallWithoutK(t *testing.T) {
	s, hs := newTestServer(t)
	post(t, hs.URL+"/v1/updates", `{
		"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":1,"frac":0.2},{"id":3,"edge":2,"frac":0.4}],
		"queries":[{"id":1,"k":2,"edge":0,"frac":0.1}]
	}`)
	s.Tick()

	expect := func(body string, want int) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("batch %s got status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// The review scenario: end + k-less re-report of an applied query in
	// one batch.
	expect(`{"queries":[{"id":1,"end":true},{"id":1,"edge":0,"frac":0.5}]}`, http.StatusBadRequest)
	// Same with an explicit k=0, and with a move appended after the end.
	expect(`{"queries":[{"id":1,"end":true},{"id":1,"k":0,"edge":0,"frac":0.5}]}`, http.StatusBadRequest)
	expect(`{"queries":[{"id":1,"end":true},{"id":1,"k":3,"edge":0,"frac":0.5},{"id":1,"edge":1,"frac":0.5}]}`,
		http.StatusBadRequest) // last report wins: the k-less move would be installed
	// Install chains: a k-less re-report of a not-yet-ticked install, in
	// the same batch and across batches within one tick.
	expect(`{"queries":[{"id":5,"k":2,"edge":0,"frac":0.1},{"id":5,"edge":1,"frac":0.2}]}`, http.StatusBadRequest)
	expect(`{"queries":[{"id":6,"k":2,"edge":0,"frac":0.1}]}`, http.StatusOK)
	expect(`{"queries":[{"id":6,"edge":1,"frac":0.2}]}`, http.StatusBadRequest)
	// End then re-report across batches within one tick.
	expect(`{"queries":[{"id":1,"end":true}]}`, http.StatusOK)
	expect(`{"queries":[{"id":1,"edge":0,"frac":0.5}]}`, http.StatusBadRequest)
	// A well-formed end + reinstall is accepted and the new k serves.
	expect(`{"queries":[{"id":1,"k":3,"edge":0,"frac":0.1}]}`, http.StatusOK)
	s.Tick()
	if _, one := get(t, hs.URL+"/v1/result?query=1"); len(one["result"].(map[string]any)["neighbors"].([]any)) != 3 {
		t.Fatalf("re-installed query should serve k=3: %v", one)
	}
	// The stepper survived every rejected batch.
	s.Tick()
}

// TestServeCloseIdempotent: Close must tolerate repeated and concurrent
// calls (e.g. a signal handler racing a deferred Close).
func TestServeCloseIdempotent(t *testing.T) {
	net := roadknn.GenerateNetwork(100, 3)
	s := New(roadknn.NewIMAWith(net, roadknn.Options{Workers: 2, Serving: true}), Config{Tick: time.Millisecond})
	s.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close()
}

// TestServeIngestionLimits: oversized bodies and pending floods are
// bounded — an untrusted client cannot exhaust memory through
// POST /v1/updates.
func TestServeIngestionLimits(t *testing.T) {
	net := roadknn.GenerateNetwork(100, 3)
	s := New(roadknn.NewIMAWith(net, roadknn.Options{Serving: true}), Config{MaxBodyBytes: 256, MaxPending: 3})
	t.Cleanup(s.Close)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)

	big := `{"objects":[` + strings.Repeat(`{"id":1,"edge":0,"frac":0.5},`, 20) + `{"id":1,"edge":0,"frac":0.5}]}`
	resp, err := http.Post(hs.URL+"/v1/updates", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body got status %d, want 413", resp.StatusCode)
	}

	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":1,"frac":0.5}]}`)
	resp, err = http.Post(hs.URL+"/v1/updates", "application/json",
		strings.NewReader(`{"objects":[{"id":3,"edge":0,"frac":0.5},{"id":4,"edge":1,"frac":0.5}]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("pending flood got status %d, want 429", resp.StatusCode)
	}
	// Re-reports of already-pending entities overwrite in place, so
	// steady-state move traffic is never throttled by the cap.
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":2,"frac":0.1},{"id":2,"edge":0,"frac":0.9}]}`)

	// A tick drains the batcher and ingestion resumes.
	s.Tick()
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":3,"edge":0,"frac":0.5}]}`)
}

// TestServeConcurrentReadersAndTicks hammers snapshot/result reads from
// several goroutines while ticks apply churn, verifying (under -race)
// that the HTTP read path is lock-free against the stepper.
func TestServeConcurrentReadersAndTicks(t *testing.T) {
	s, hs := newTestServer(t)
	post(t, hs.URL+"/v1/updates",
		`{"objects":[{"id":1,"edge":0,"frac":0.5},{"id":2,"edge":2,"frac":0.6}],"queries":[{"id":1,"k":1,"edge":1,"frac":0.5}]}`)
	s.Tick()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if status, _ := get(t, hs.URL+"/v1/snapshot"); status != http.StatusOK {
					t.Errorf("snapshot status %d", status)
					return
				}
				if status, _ := get(t, hs.URL+"/v1/result?query=1"); status != http.StatusOK {
					t.Errorf("result status %d", status)
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		post(t, hs.URL+"/v1/updates",
			fmt.Sprintf(`{"objects":[{"id":1,"edge":%d,"frac":0.3}]}`, i%20))
		s.Tick()
	}
	close(stop)
	wg.Wait()
}
