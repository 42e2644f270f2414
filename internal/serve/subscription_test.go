package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roadknn"
	"roadknn/internal/core"
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

func newStreamClient(r io.Reader, accept string) *streamClient {
	if accept != "" {
		return &streamClient{bin: NewDeltaStreamReader(r)}
	}
	return &streamClient{sse: bufio.NewReader(r)}
}

func openStreamClient(t *testing.T, base, path, accept string) *streamClient {
	t.Helper()
	return newStreamClient(openStream(t, base+path, accept), accept)
}

// next returns the name and payload of the next event — a binary frame's
// payload, or an SSE event's data — or the error that ended the stream.
func (c *streamClient) next() (string, []byte, error) {
	for c.bin != nil {
		typ, payload, err := c.bin.Next()
		switch {
		case err != nil:
			return "", nil, err
		case typ == DeltaFrameResync:
			return "resync", payload, nil
		case typ == DeltaFrameDelta:
			return "delta", payload, nil
		}
	}
	for {
		line, err := c.sse.ReadString('\n')
		if err != nil {
			return "", nil, err
		}
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			data, err := c.sse.ReadString('\n')
			if err != nil {
				return "", nil, err
			}
			return strings.TrimSpace(name), []byte(strings.TrimPrefix(strings.TrimSpace(data), "data: ")), nil
		}
	}
}

// expect fails the test unless the next event arrives within five seconds
// and has the given name, and returns its payload.
func (c *streamClient) expect(t *testing.T, want string) []byte {
	t.Helper()
	type result struct {
		name    string
		payload []byte
		err     error
	}
	done := make(chan result, 1)
	go func() {
		name, payload, err := c.next()
		done <- result{name, payload, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.name != want {
			t.Fatalf("next event %q, %v; want %q", r.name, r.err, want)
		}
		return r.payload
	case <-time.After(5 * time.Second):
		t.Fatalf("no %q event within 5s", want)
	}
	return nil
}

// resyncCRC is the CRC32 of the snapshot a client rebuilds from a resync
// event's payload: a binary frame decodes to one, and an SSE event's JSON
// is put back into the canonical encoding.
func resyncCRC(t *testing.T, accept string, payload []byte) uint32 {
	t.Helper()
	if accept != "" {
		_, snap, _, err := DecodeDeltaFrame(DeltaFrameResync, payload)
		if err != nil {
			t.Fatalf("resync frame: %v", err)
		}
		return snap.CRC32()
	}
	var sj snapshotJSON
	if err := json.Unmarshal(payload, &sj); err != nil {
		t.Fatalf("resync event: %v", err)
	}
	b := binary.LittleEndian.AppendUint64(nil, sj.Epoch)
	b = binary.LittleEndian.AppendUint64(b, sj.Timestamp)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sj.Queries)))
	for _, q := range sj.Queries {
		b = binary.LittleEndian.AppendUint32(b, uint32(q.ID))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(q.Neighbors)))
		for _, nb := range q.Neighbors {
			b = binary.LittleEndian.AppendUint32(b, uint32(nb.Obj))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(nb.Dist))
		}
	}
	snap, err := core.UnmarshalSnapshot(b)
	if err != nil {
		t.Fatalf("resync event does not rebuild a snapshot: %v", err)
	}
	return snap.CRC32()
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

// churn moves object 1, the one object of newStreamTestServer, and ticks:
// query 3's row changes, so the epoch's delta weighs more than the one-row
// snapshot and a cursor one more epoch behind has fallen off the ring.
func churn(t *testing.T, s *Server, hs *httptest.Server, i int) {
	t.Helper()
	post(t, hs.URL+"/v1/updates", fmt.Sprintf(`{"objects":[{"id":1,"edge":0,"frac":0.%d}]}`, 1+i%9))
	s.Tick()
}

// TestStreamEviction: lag evicts no subscriber, on any stream encoding. A
// cursor whose chain of churn outweighs the newest snapshot is resynced
// from it and stays connected, then advances by deltas again; a subscriber
// of an engine built without Options{Deltas} is resynced at every epoch by
// design and stays connected too. The one eviction rule, a stalled write,
// is send's.
func TestStreamEviction(t *testing.T) {
	for _, enc := range streamEncodings {
		for _, deltas := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/deltas=%v", enc.name, deltas), func(t *testing.T) {
				s, hs := newStreamTestServer(t, deltas, Config{})
				since := s.broker.newest().Epoch()
				churn(t, s, hs, 0)
				churn(t, s, hs, 1) // two epochs of churn outweigh the snapshot
				if _, epochs, _ := s.broker.weight(); deltas && epochs != 1 {
					t.Fatalf("test premise broken: the ring holds %d epochs after two churned ones, want 1", epochs)
				}
				c := openStreamClient(t, hs.URL, fmt.Sprintf("%s?since=%d", enc.path, since), enc.accept)
				c.expect(t, "resync")
				want := "resync"
				switch {
				case deltas && enc.path == "/v1/stream":
					want = "rows"
				case deltas:
					want = "delta"
				}
				for i := 0; i < 5; i++ {
					churn(t, s, hs, i+2)
					c.expect(t, want)
				}
				if n := s.broker.evicted.Load(); n != 0 {
					t.Fatalf("lagging subscriber evicted (%d)", n)
				}
			})
		}
	}
}

// heldWriter is a ResponseWriter that holds every Write until the reader
// has consumed its bytes and asks for more. A stream handler held in a write
// cannot advance its cursor, so the test decides how many epochs the broker
// publishes before the handler's next collect.
type heldWriter struct {
	header  http.Header
	writes  chan []byte
	release chan struct{}
	done    chan struct{} // closed at the end: every write returns
	held    bool          // reader side: a write is waiting for release
	unread  []byte        // reader side: the held write's unread bytes
}

func newHeldWriter() *heldWriter {
	return &heldWriter{header: http.Header{}, writes: make(chan []byte), release: make(chan struct{}), done: make(chan struct{})}
}

func (w *heldWriter) Header() http.Header { return w.header }
func (w *heldWriter) WriteHeader(int)     {}
func (w *heldWriter) Flush()              {}

func (w *heldWriter) Write(b []byte) (int, error) {
	select {
	case w.writes <- bytes.Clone(b):
	case <-w.done:
		return len(b), nil
	}
	select {
	case <-w.release:
	case <-w.done:
	}
	return len(b), nil
}

// Read hands out the held write's bytes; once they are consumed, it
// releases that write and waits for the next.
func (w *heldWriter) Read(p []byte) (int, error) {
	if len(w.unread) == 0 {
		if w.held {
			select {
			case w.release <- struct{}{}:
			case <-w.done:
				return 0, io.EOF
			}
			w.held = false
		}
		select {
		case w.unread = <-w.writes:
			w.held = true
		case <-w.done:
			return 0, io.EOF
		case <-time.After(5 * time.Second):
			return 0, errors.New("no write within 5s")
		}
	}
	n := copy(p, w.unread)
	w.unread = w.unread[n:]
	return n, nil
}

// TestStreamResyncsWithoutEviction: a connected reader falls off the ring
// four times in a row, on every stream encoding. Each time, three epochs of
// churn are published while the handler is held in the write of its last
// event, so its next collect finds a chain heavier than the snapshot. It is
// resynced, the snapshot it rebuilds has head's CRC, and it stays connected:
// the next epoch reaches it as a delta, and delta.evicted stays 0.
func TestStreamResyncsWithoutEviction(t *testing.T) {
	for _, enc := range streamEncodings {
		t.Run(enc.name, func(t *testing.T) {
			s, hs := newStreamTestServer(t, true, Config{})
			w := newHeldWriter()
			ctx, cancel := context.WithCancel(context.Background())
			req := httptest.NewRequest(http.MethodGet, enc.path, nil).WithContext(ctx)
			if enc.accept != "" {
				req.Header.Set("Accept", enc.accept)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.Handler().ServeHTTP(w, req)
			}()
			defer func() {
				cancel()
				close(w.done)
				<-served
			}()
			c := newStreamClient(w, enc.accept)
			c.expect(t, "resync") // the bootstrap; the handler is held in its write
			for lag := 1; lag <= 4; lag++ {
				for i := 0; i < 3; i++ {
					churn(t, s, hs, 3*lag+i)
				}
				payload := c.expect(t, "resync")
				if got, want := resyncCRC(t, enc.accept, payload), s.broker.newest().CRC32(); got != want {
					t.Fatalf("lag %d: the resync rebuilds a snapshot with CRC %08x, head's is %08x", lag, got, want)
				}
				if n := s.broker.resyncs.Load(); n != int64(lag) {
					t.Fatalf("lag %d: %d ring-lag resyncs counted", lag, n)
				}
			}
			churn(t, s, hs, 0)
			want := "delta"
			if enc.path == "/v1/stream" {
				want = "rows"
			}
			c.expect(t, want)
			if n := s.broker.evicted.Load(); n != 0 {
				t.Fatalf("a reader that fell off the ring was evicted (%d)", n)
			}
		})
	}
}

// TestSubscriptionResyncsOnLag: a cursor whose chain would outweigh the
// newest snapshot is resynced, however many times in a row; one whose chain
// fits advances by it; an idle advance is a heartbeat.
func TestSubscriptionResyncsOnLag(t *testing.T) {
	s, hs := newStreamTestServer(t, true, Config{})
	sub := &subscription{s: s, since: s.broker.newest().Epoch()}
	for i := 0; i < 4; i++ {
		churn(t, s, hs, 2*i)
		churn(t, s, hs, 2*i+1) // two churned epochs outweigh the snapshot
		if adv := sub.next(context.Background(), 0); !adv.resync || adv.chain != nil || adv.head.Epoch() != sub.since {
			t.Fatalf("lagged advance %d: resync %v, chain of %d", i, adv.resync, len(adv.chain))
		}
	}
	churn(t, s, hs, 8)
	if adv := sub.next(context.Background(), 0); adv.resync || len(adv.chain) != 1 {
		t.Fatalf("caught-up advance: resync %v, chain of %d", adv.resync, len(adv.chain))
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
