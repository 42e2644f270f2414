package serve

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roadknn"
	"roadknn/internal/wal"
)

// streamEncodings are the three ways a subscription is put on a stream.
var streamEncodings = []struct{ name, path, accept string }{
	{"deltas-sse", "/v1/deltas", ""},
	{"deltas-binary", "/v1/deltas", DeltaStreamContentType},
	{"rows-sse", "/v1/stream", ""},
}

// streamClient reads one stream in any of the three encodings and reports
// its events by name ("resync", "delta", "rows"), skipping keep-alives.
type streamClient struct {
	sse *bufio.Reader
	bin *DeltaStreamReader
}

func openStreamClient(t *testing.T, base, path, accept string) *streamClient {
	t.Helper()
	r := openStream(t, base+path, accept)
	if accept != "" {
		return &streamClient{bin: NewDeltaStreamReader(r)}
	}
	return &streamClient{sse: r}
}

// next returns the name of the next event, or the error that ended the
// stream.
func (c *streamClient) next() (string, error) {
	for c.bin != nil {
		typ, _, err := c.bin.Next()
		switch {
		case err != nil:
			return "", err
		case typ == DeltaFrameResync:
			return "resync", nil
		case typ == DeltaFrameDelta:
			return "delta", nil
		}
	}
	for {
		line, err := c.sse.ReadString('\n')
		if err != nil {
			return "", err
		}
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			return strings.TrimSpace(name), nil
		}
	}
}

// expect fails the test unless the next event arrives within five seconds
// and has the given name.
func (c *streamClient) expect(t *testing.T, want string) {
	t.Helper()
	type result struct {
		name string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		name, err := c.next()
		done <- result{name, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.name != want {
			t.Fatalf("next event %q, %v; want %q", r.name, r.err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no %q event within 5s", want)
	}
}

func newStreamTestServer(t *testing.T, deltas bool, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	net := roadknn.GenerateNetwork(300, 7)
	s := New(roadknn.NewIMAWith(net, roadknn.Options{Workers: 2, Serving: true, Deltas: deltas}), cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}],"queries":[{"id":3,"k":1,"edge":0,"frac":0.2}]}`)
	s.Tick()
	return s, hs
}

// TestStreamSurvivesIdleKeepAlives: a subscriber idle for longer than
// DeltaSendTimeout must still be connected when the next epoch arrives.
// Keep-alives written without a fresh write deadline used to hit the one
// left by the last event, which ended the stream silently.
func TestStreamSurvivesIdleKeepAlives(t *testing.T) {
	for _, enc := range streamEncodings {
		t.Run(enc.name, func(t *testing.T) {
			s, hs := newStreamTestServer(t, true, Config{MaxWait: 200 * time.Millisecond, DeltaSendTimeout: 50 * time.Millisecond})
			c := openStreamClient(t, hs.URL, enc.path, enc.accept)
			c.expect(t, "resync")
			time.Sleep(700 * time.Millisecond) // three keep-alives, each past the send deadline of the one before
			post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.9}]}`)
			s.Tick()
			want := "delta"
			if enc.path == "/v1/stream" {
				want = "rows"
			}
			c.expect(t, want)
			if n := s.broker.evicted.Load(); n != 0 {
				t.Fatalf("idle subscriber counted as evicted (%d)", n)
			}
		})
	}
}

// TestStreamEviction: the one eviction rule, on every stream encoding. A
// subscriber whose cursor has fallen off the delta ring is resynced, and
// dropped once that has happened MaxResyncStrikes times in a row (here
// once, so that a stale ?since= decides it before any timing can); a
// subscriber of an engine built without Options{Deltas} is resynced at
// every epoch by design and must never be dropped for it.
func TestStreamEviction(t *testing.T) {
	for _, enc := range streamEncodings {
		for _, deltas := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/deltas=%v", enc.name, deltas), func(t *testing.T) {
				s, hs := newStreamTestServer(t, deltas, Config{DeltaRing: 1, MaxResyncStrikes: 1})
				s.Tick()
				s.Tick() // the one-slot ring now starts two epochs past cursor 0
				c := openStreamClient(t, hs.URL, enc.path+"?since=0", enc.accept)
				if deltas {
					if name, err := c.next(); err == nil {
						t.Fatalf("lagging subscriber got %q, want the stream ended", name)
					}
					waitFor(t, time.Second, func() bool { return s.broker.evicted.Load() == 1 })
					return
				}
				c.expect(t, "resync")
				for i := 0; i < 5; i++ {
					post(t, hs.URL+"/v1/updates", fmt.Sprintf(`{"objects":[{"id":1,"edge":0,"frac":0.%d}]}`, i+1))
					s.Tick()
					c.expect(t, "resync")
				}
				if n := s.broker.evicted.Load(); n != 0 {
					t.Fatalf("subscriber of a delta-less engine evicted (%d)", n)
				}
			})
		}
	}
}

// TestSubscriptionStrikes: strikes count consecutive ring-lag resyncs and
// an incremental advance clears them.
func TestSubscriptionStrikes(t *testing.T) {
	s, _ := newStreamTestServer(t, true, Config{DeltaRing: 1})
	sub := &subscription{s: s, since: s.broker.newest().Epoch()}
	for want := 1; want <= 2; want++ {
		s.Tick()
		s.Tick() // two epochs into a one-slot ring: the cursor falls off
		if adv := sub.next(context.Background(), 0); !adv.resync || sub.strikes != want {
			t.Fatalf("lagged advance: resync %v, %d strikes, want %d", adv.resync, sub.strikes, want)
		}
	}
	s.Tick()
	if adv := sub.next(context.Background(), 0); len(adv.chain) != 1 || sub.strikes != 0 {
		t.Fatalf("caught-up advance: chain of %d, %d strikes", len(adv.chain), sub.strikes)
	}
	if adv := sub.next(context.Background(), 0); adv.resync || adv.chain != nil || adv.head.Epoch() != sub.since {
		t.Fatalf("idle advance is not a heartbeat: %+v", adv)
	}
}

// gateFS is a wal.FS whose Sync parks on a channel while armed, holding a
// tick inside its fsync for as long as the test wants.
type gateFS struct {
	wal.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (g *gateFS) Create(name string) (wal.File, error) {
	f, err := g.FS.Create(name)
	return &gateFile{f, g}, err
}

func (g *gateFS) Append(name string) (wal.File, error) {
	f, err := g.FS.Append(name)
	return &gateFile{f, g}, err
}

func (f *gateFile) Sync() error {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.entered <- struct{}{}
		<-f.g.release
	}
	return f.File.Sync()
}

// TestSyncTickReadsWaitForDurability: under wal.SyncTick no endpoint
// may show an epoch whose tick record is not fsynced yet — not the delta
// subscribers, not /v1/snapshot, /v1/result or a bootstrap resync, and not
// the epoch /v1/stats and /v1/replication/info report either.
func TestSyncTickReadsWaitForDurability(t *testing.T) {
	gate := &gateFS{FS: wal.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	l, rec, err := wal.Open(gate, wal.Options{Sync: wal.SyncTick})
	if err != nil {
		t.Fatal(err)
	}
	net := roadknn.GenerateNetwork(300, 7)
	s := New(roadknn.NewIMAWith(net, roadknn.Options{Workers: 2, Serving: true, Deltas: true}), Config{WAL: l})
	if _, err := s.Recover(rec); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}],"queries":[{"id":3,"k":1,"edge":0,"frac":0.2}]}`)
	durable := s.Tick().Epoch()

	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.9}]}`)
	gate.armed.Store(true)
	ticked := make(chan uint64)
	go func() { ticked <- s.Tick().Epoch() }()
	<-gate.entered // the engine has stepped; the tick record's fsync is parked

	reads := []string{
		"/v1/snapshot",
		"/v1/result?query=3",
		"/v1/delta",
		fmt.Sprintf("/v1/snapshot?since=%d&wait_ms=20", durable),
		fmt.Sprintf("/v1/result?query=3&since=%d&wait_ms=20", durable),
		"/v1/stats",
		"/v1/replication/info",
	}
	epochOf := func(path string) uint64 {
		t.Helper()
		status, body := get(t, hs.URL+path)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, status)
		}
		return uint64(body["epoch"].(float64))
	}
	for _, path := range reads {
		if got := epochOf(path); got != durable {
			t.Errorf("GET %s showed epoch %d while its tick record was not durable (last durable epoch %d)", path, got, durable)
		}
	}
	close(gate.release)
	next := <-ticked
	if next != durable+1 {
		t.Fatalf("tick reached epoch %d, want %d", next, durable+1)
	}
	for _, path := range reads {
		if got := epochOf(path); got != next {
			t.Errorf("GET %s shows epoch %d after the fsync, want %d", path, got, next)
		}
	}
}
