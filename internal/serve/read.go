package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"roadknn"
)

// This file is the read path: every read route is a subscription over the
// broker, answered once (long-poll transport) or continuously (stream
// transport), and rendered by one of three encoders — delta JSON and rows
// JSON below, binary frames in deltawire.go. The route table is in the
// package comment.

// querySet is a subscriber's ?query= / ?queries= filter; nil selects every
// query.
type querySet map[roadknn.QueryID]struct{}

func (qs querySet) has(id roadknn.QueryID) bool {
	if qs == nil {
		return true
	}
	_, ok := qs[id]
	return ok
}

// subscription is one reader's cursor over the broker: the epoch it has
// been brought to and the queries it wants.
type subscription struct {
	s     *Server
	since uint64
	boot  bool // no cursor yet: the first advance re-seeds it from the newest snapshot
	only  querySet
}

// advance is what one step of a subscription yields, exactly one of: a
// delta chain (chain non-empty: the deltas of the epochs since+1..head), a
// resync (the cursor cannot advance incrementally and is re-seeded from
// head), or a heartbeat (neither: nothing newer arrived in time). head is
// the newest published snapshot in all three, and the epoch the cursor now
// stands at in the first two.
type advance struct {
	chain  []*roadknn.Delta
	resync bool
	head   *roadknn.Snapshot
}

// next advances the cursor, waiting up to wait for the broker to publish
// something newer. This is the one wait loop of the read path. Waiting is
// on the broker, never on the engine: the stepper publishes an epoch to
// the broker only once the durability policy allows clients to see it
// (under wal.SyncTick, after its tick record is fsynced), while the
// engine's own snapshot flips at Step. A cursor the broker cannot serve a
// chain — fallen off the delta ring, or behind an epoch without a delta —
// is resynced, however often that happens in a row. A wait cut short —
// timeout, client gone, server closing — yields a heartbeat; the caller
// tells the three apart.
func (sub *subscription) next(ctx context.Context, wait time.Duration) advance {
	b := sub.s.broker
	if sub.boot {
		sub.boot = false
		head := b.newest()
		sub.since = head.Epoch()
		return advance{resync: true, head: head}
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		chain, head, notify := b.collect(sub.since)
		if notify == nil {
			sub.since = head.Epoch()
			return advance{chain: chain, resync: chain == nil, head: head}
		}
		select {
		case <-notify:
		case <-deadline.C:
			return advance{head: head}
		case <-ctx.Done():
			return advance{head: head}
		case <-sub.s.stopc: // server closing: answer with what we have
			return advance{head: head}
		}
	}
}

// subscribe resolves the parameters every read route shares: ?since=E is
// the subscriber's cursor (absent: bootstrap from the newest snapshot),
// ?wait_ms=N bounds a long-poll below Config.MaxWait, and ?query= or
// ?queries= restricts delivery to a comma-separated list of query ids. It
// answers 400 itself when one is malformed.
func (s *Server) subscribe(w http.ResponseWriter, r *http.Request) (sub *subscription, wait time.Duration, ok bool) {
	q := r.URL.Query()
	sub = &subscription{s: s, boot: true}
	if v := q.Get("since"); v != "" {
		since, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad ?since=", http.StatusBadRequest)
			return nil, 0, false
		}
		sub.since, sub.boot = since, false
	}
	wait = s.cfg.MaxWait
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			http.Error(w, "bad ?wait_ms=", http.StatusBadRequest)
			return nil, 0, false
		}
		wait = min(wait, time.Duration(ms)*time.Millisecond)
	}
	if v := q.Get("query") + "," + q.Get("queries"); v != "," {
		sub.only = querySet{}
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part == "" {
				continue
			}
			id, err := strconv.ParseInt(part, 10, 32)
			if err != nil {
				sub.only = nil
				break
			}
			sub.only[roadknn.QueryID(id)] = struct{}{}
		}
		if len(sub.only) == 0 {
			http.Error(w, "bad ?query= / ?queries= (want a comma-separated id list)", http.StatusBadRequest)
			return nil, 0, false
		}
	}
	return sub, wait, true
}

// ---- long-poll transport: advance once, answer, done ----

// poll advances a fresh subscription once and stamps the response with the
// epoch it answers at; the route's encoder renders the body.
func (s *Server) poll(w http.ResponseWriter, r *http.Request, sub *subscription, wait time.Duration) advance {
	adv := sub.next(r.Context(), wait)
	s.reads.Add(1)
	w.Header().Set(epochHeader, strconv.FormatUint(adv.head.Epoch(), 10))
	return adv
}

// handleSnapshot answers with the newest snapshot (rows encoder): at once
// without ?since, else as soon as one newer than the cursor is published —
// or the current one when the wait runs out, for the client to re-poll.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sub, wait, ok := s.subscribe(w, r)
	if !ok {
		return
	}
	writeJSON(w, snapshotToJSON(s.poll(w, r, sub, wait).head, sub.only))
}

// handleResult is handleSnapshot narrowed to the one query ?query= names.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sub, wait, ok := s.subscribe(w, r)
	if !ok {
		return
	}
	if len(sub.only) != 1 {
		http.Error(w, "missing or bad ?query=", http.StatusBadRequest)
		return
	}
	head := s.poll(w, r, sub, wait).head
	for id := range sub.only {
		res, registered := head.Lookup(id)
		if !registered {
			http.Error(w, "unknown query", http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{
			"epoch":     head.Epoch(),
			"timestamp": head.Timestamp(),
			"result":    resultToJSON(id, res),
		})
	}
}

// handleDelta is the long-poll cursor advance: the delta chain since+1..
// newest, or a resync when the chain is not reconstructible (or there is
// no cursor yet), or neither when nothing newer arrived in time — the
// reported epoch is then the newest published one, so a client holding a
// cursor from the future can correct itself instead of polling forever.
// Accept negotiates delta JSON or binary frames.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	sub, wait, ok := s.subscribe(w, r)
	if !ok {
		return
	}
	adv := s.poll(w, r, sub, wait)
	if !wantsBinaryDelta(r) {
		writeJSON(w, deltaPollToJSON(adv, sub.only))
		return
	}
	body, _ := binaryDeltas.appendAdvance(append([]byte(nil), binaryDeltas.preamble...), adv, sub.only)
	if len(body) == len(binaryDeltas.preamble) {
		// Everything filtered out: a heartbeat still advances the
		// subscriber's cursor past the changeless epochs.
		body = appendHeartbeatFrame(body, adv.head.Epoch())
	}
	w.Header().Set("Content-Type", binaryDeltas.contentType)
	w.Write(body)
}

// ---- stream transport: advance, send, repeat ----

// streamEncoding is one way to put a subscription on a stream.
type streamEncoding struct {
	contentType string
	preamble    []byte // sent once, before the first advance
	// appendAdvance appends the wire form of one advance to b — nothing at
	// all when the subscriber's filter leaves nothing to say. An error
	// (a value the encoding cannot represent) ends the stream.
	appendAdvance func(b []byte, adv advance, only querySet) ([]byte, error)
}

// handleDeltas streams one delta per published epoch — SSE "delta" events,
// or binary frames when Accept negotiates them.
func (s *Server) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if wantsBinaryDelta(r) {
		s.stream(w, r, binaryDeltas)
		return
	}
	s.stream(w, r, sseDeltas)
}

// handleStream streams SSE "rows" events: per advance, the full current
// rows of exactly the queries whose results changed since the cursor.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.stream(w, r, sseRows)
}

// stream pushes a subscription's advances until the client disconnects,
// the server closes, or the subscriber is evicted. Without ?since it opens
// with a resync, so the client has a base to advance from; a resync also
// re-seeds it whenever its cursor cannot advance incrementally. There is
// one eviction rule: a subscriber is dropped (and counted in
// delta.evicted) when it cannot absorb one write within DeltaSendTimeout
// (see send). Lagging off the delta ring is not a reason: the ring lets a
// delta go only once the chain through it would outweigh head, so the
// resync a lagging subscriber gets weighs no more than the chain it
// replaces (short of deltaRing epochs of lag).
func (s *Server) stream(w http.ResponseWriter, r *http.Request, enc streamEncoding) {
	if _, ok := w.(http.Flusher); !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	sub, _, ok := s.subscribe(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", enc.contentType)
	w.Header().Set("Cache-Control", "no-cache")
	s.streamsActive.Add(1)
	defer s.streamsActive.Add(-1)
	rc := http.NewResponseController(w)
	if len(enc.preamble) > 0 && !s.send(w, rc, enc.preamble) {
		return
	}
	for {
		adv := sub.next(r.Context(), s.cfg.MaxWait)
		if r.Context().Err() != nil {
			return
		}
		select {
		case <-s.stopc: // server closing: end the stream
			return
		default:
		}
		// A fresh buffer per advance: one reused across them would pin the
		// size of the largest resync for the life of every stream.
		buf, err := enc.appendAdvance(nil, adv, sub.only)
		if err != nil || (len(buf) > 0 && !s.send(w, rc, buf)) {
			return
		}
	}
}

// send is the one write path of the stream transport. Every write — events,
// keep-alives and heartbeats alike — first moves the connection's write
// deadline DeltaSendTimeout ahead, so an idle stream never trips over the
// deadline its last event left behind, and a subscriber that cannot absorb
// a write in time is evicted: the write errors out, the connection closes,
// and its handler goroutine and the advance it was sending are released.
func (s *Server) send(w http.ResponseWriter, rc *http.ResponseController, b []byte) bool {
	s.reads.Add(1)
	rc.SetWriteDeadline(time.Now().Add(s.cfg.DeltaSendTimeout))
	_, err := w.Write(b)
	if ferr := rc.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		s.broker.evicted.Add(1)
		return false
	}
	return true
}

// ---- rows JSON and delta JSON encoders ----

type neighborJSON struct {
	Obj  int64   `json:"obj"`
	Dist float64 `json:"dist"`
}

type queryResultJSON struct {
	ID        int32          `json:"id"`
	Neighbors []neighborJSON `json:"neighbors"`
}

type snapshotJSON struct {
	Epoch     uint64            `json:"epoch"`
	Timestamp uint64            `json:"timestamp"`
	Queries   []queryResultJSON `json:"queries"`
}

// snapshotToJSON renders a snapshot restricted to the subscribed queries.
func snapshotToJSON(snap *roadknn.Snapshot, only querySet) snapshotJSON {
	n := snap.Len()
	if only != nil {
		n = len(only)
	}
	out := snapshotJSON{
		Epoch:     snap.Epoch(),
		Timestamp: snap.Timestamp(),
		Queries:   make([]queryResultJSON, 0, n),
	}
	for i := 0; i < snap.Len(); i++ {
		if id, res := snap.At(i); only.has(id) {
			out.Queries = append(out.Queries, resultToJSON(id, res))
		}
	}
	return out
}

func resultToJSON(id roadknn.QueryID, res []roadknn.Neighbor) queryResultJSON {
	q := queryResultJSON{ID: int32(id), Neighbors: make([]neighborJSON, 0, len(res))}
	for _, nb := range res {
		q.Neighbors = append(q.Neighbors, neighborJSON{Obj: int64(nb.Obj), Dist: nb.Dist})
	}
	return q
}

// rowsJSON is one /v1/stream event: the full current results of exactly the
// queries whose results changed since the subscriber's cursor, plus the ids
// of queries removed — churn-proportional like a delta, but self-contained
// per query (no client-side delta application needed).
type rowsJSON struct {
	Epoch     uint64            `json:"epoch"`
	Timestamp uint64            `json:"timestamp"`
	Changed   []queryResultJSON `json:"changed,omitempty"`
	Removed   []int64           `json:"removed,omitempty"`
}

// rowsToJSON folds a delta chain into the one rows event that brings a
// subscriber to head: every subscribed query some delta of the chain names,
// ascending, with its row read from head — or its id under removed when head
// no longer has it. Old epochs' rows are retained nowhere, and a client that
// replaces its rows by the event's ends at head's view whatever happened in
// between. It is empty when nothing changed for the subscribed queries.
func rowsToJSON(adv advance, only querySet) rowsJSON {
	var ids []roadknn.QueryID
	for _, d := range adv.chain {
		for i := range d.Queries {
			if id := d.Queries[i].ID; only.has(id) {
				ids = append(ids, id)
			}
		}
	}
	slices.Sort(ids) // one delta's ids already ascend; several interleave and repeat
	ids = slices.Compact(ids)
	out := rowsJSON{Epoch: adv.head.Epoch(), Timestamp: adv.head.Timestamp()}
	for _, id := range ids {
		if res, ok := adv.head.Lookup(id); ok {
			out.Changed = append(out.Changed, resultToJSON(id, res))
		} else {
			out.Removed = append(out.Removed, int64(id))
		}
	}
	return out
}

// queryDeltaJSON is one query's change within a delta event.
type queryDeltaJSON struct {
	ID      int32          `json:"id"`
	Removed bool           `json:"removed,omitempty"`
	Left    []int64        `json:"left,omitempty"`
	Updated []neighborJSON `json:"updated,omitempty"`
}

type deltaJSON struct {
	Epoch     uint64           `json:"epoch"`
	Timestamp uint64           `json:"timestamp"`
	Queries   []queryDeltaJSON `json:"queries"`
}

func deltaToJSON(d *roadknn.Delta) deltaJSON {
	out := deltaJSON{
		Epoch:     d.Epoch(),
		Timestamp: d.Timestamp(),
		Queries:   make([]queryDeltaJSON, 0, len(d.Queries)),
	}
	for i := range d.Queries {
		qd := &d.Queries[i]
		j := queryDeltaJSON{ID: int32(qd.ID), Removed: qd.Removed}
		for _, o := range qd.Left {
			j.Left = append(j.Left, int64(o))
		}
		for _, nb := range qd.Updated {
			j.Updated = append(j.Updated, neighborJSON{Obj: int64(nb.Obj), Dist: nb.Dist})
		}
		out.Queries = append(out.Queries, j)
	}
	return out
}

// deltaPollJSON is the GET /v1/delta body: a delta chain advancing the
// cursor to Epoch, or a resync, or neither (see handleDelta).
type deltaPollJSON struct {
	Epoch  uint64        `json:"epoch"`
	Deltas []deltaJSON   `json:"deltas,omitempty"`
	Resync *snapshotJSON `json:"resync,omitempty"`
}

func deltaPollToJSON(adv advance, only querySet) deltaPollJSON {
	out := deltaPollJSON{Epoch: adv.head.Epoch()}
	if adv.resync {
		sj := snapshotToJSON(adv.head, only)
		out.Resync = &sj
	}
	// The cursor advances over the whole chain even when filtering leaves
	// nothing to send: a skipped delta carries zero changes for the
	// subscribed queries.
	for _, d := range filterChain(adv.chain, only) {
		out.Deltas = append(out.Deltas, deltaToJSON(d))
	}
	return out
}

// sseEncoding is the server-sent-events form of a JSON encoder: a "resync"
// event carries the (filtered) full snapshot, a chain becomes the events
// named after the encoder whose payloads chain renders (none: nothing to say
// to this subscriber), and a heartbeat is a keep-alive comment.
func sseEncoding(event string, chain func(advance, querySet) []any) streamEncoding {
	appendEvent := func(b []byte, event string, payload any) ([]byte, error) {
		data, err := json.Marshal(payload)
		if err != nil {
			return b, err
		}
		b = append(append(b, "event: "...), event...)
		b = append(append(b, "\ndata: "...), data...)
		return append(b, "\n\n"...), nil
	}
	return streamEncoding{
		contentType: "text/event-stream",
		appendAdvance: func(b []byte, adv advance, only querySet) ([]byte, error) {
			switch {
			case adv.resync:
				return appendEvent(b, "resync", snapshotToJSON(adv.head, only))
			case adv.chain == nil:
				return append(b, ": keep-alive\n\n"...), nil
			}
			for _, p := range chain(adv, only) {
				var err error
				if b, err = appendEvent(b, event, p); err != nil {
					return b, err
				}
			}
			return b, nil
		},
	}
}

var (
	// One delta event per chain epoch that touches a subscribed query.
	sseDeltas = sseEncoding("delta", func(adv advance, only querySet) []any {
		var events []any
		for _, d := range filterChain(adv.chain, only) {
			events = append(events, deltaToJSON(d))
		}
		return events
	})
	// One rows event per advance, however many epochs it spans.
	sseRows = sseEncoding("rows", func(adv advance, only querySet) []any {
		if rows := rowsToJSON(adv, only); len(rows.Changed)+len(rows.Removed) > 0 {
			return []any{rows}
		}
		return nil
	})
)
