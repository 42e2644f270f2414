package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"roadknn"
	"roadknn/internal/graph"
	"roadknn/internal/serve"
)

func replayScript(t *testing.T, script string) (string, error) {
	t.Helper()
	eng := roadknn.NewIMAWith(roadknn.GenerateNetwork(60, 1), roadknn.Options{Workers: 1})
	defer eng.Close()
	var out strings.Builder
	err := replay(eng, strings.NewReader(script), &out)
	return out.String(), err
}

func TestReplayReportsResultChanges(t *testing.T) {
	out, err := replayScript(t, `
# two objects, one 2-NN query, a heavier edge
obj 1 0 0.5
obj 2 4 0.25
qry 9 2 3 0.2
w 3 500
tick
obj 1 5 0.1
# a move: k is ignored
qry 9 0 3 0.4
tick
tick
end 9
del 2
tick
`)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "ts 1 query 9 -> [") || !strings.HasPrefix(lines[1], "ts 2 query 9 -> [") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestReplayReportsInQueryOrder: a tick's changed queries are printed in
// ascending id order, so one script prints the same lines on every run.
// They were printed in map order.
func TestReplayReportsInQueryOrder(t *testing.T) {
	var script strings.Builder
	script.WriteString("obj 1 0 0.5\n")
	for i := range 24 {
		fmt.Fprintf(&script, "qry %d 1 %d 0.5\n", (i*7)%24+100, i%10)
	}
	script.WriteString("tick\nobj 2 0 0.25\ntick\n")
	out, err := replayScript(t, script.String())
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ts, id int
		if _, err := fmt.Sscanf(line, "ts %d query %d", &ts, &id); err != nil || ts != 1 {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) != 24 || !slices.IsSorted(ids) {
		t.Fatalf("tick 1 reported queries %v, want all 24 in ascending order; output:\n%s", ids, out)
	}
}

// TestLoadNetworkRejectsBadEdges: the graph panics on an edge it cannot
// hold, so a network file naming one used to crash the process ("panic:
// graph: AddEdge with invalid endpoint 0-5"). Each is now graph.CheckEdge's
// error naming the edge.
func TestLoadNetworkRejectsBadEdges(t *testing.T) {
	nodes := `"nodes":[{"X":0,"Y":0},{"X":1,"Y":0}]`
	for edge, want := range map[string]string{
		`{"U":0,"V":5,"W":1}`:  "edge 1: node out of range [0,2): 0-5",
		`{"U":-1,"V":1,"W":1}`: "edge 1: node out of range [0,2): -1-1",
		`{"U":1,"V":1,"W":1}`:  "edge 1: self-loop 1-1",
		`{"U":0,"V":1,"W":0}`:  "edge 1: weight must be finite and positive, got 0",
		`{"U":0,"V":1,"W":-2}`: "edge 1: weight must be finite and positive, got -2",
	} {
		path := filepath.Join(t.TempDir(), "net.json")
		body := `{` + nodes + `,"edges":[{"U":0,"V":1,"W":1},` + edge + `]}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadNetwork(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("edge %s: error %v, want %q", edge, err, want)
		}
	}
}

// TestReplayRejectsBadLines: the text mode used to feed the Batcher
// unvalidated, so the first script died with an index-out-of-range panic
// inside roadnet.AddObject. Every bad line is now an error naming it, in
// the Batcher's wording; deleting an unknown object is a no-op, as it is
// over HTTP.
func TestReplayRejectsBadLines(t *testing.T) {
	for script, want := range map[string]string{
		"qry 1 2 0 0.5\nobj 1 99999 0.5\ntick\n": "line 2: edge 99999 out of range [0,",
		"obj 1 -1 0.5\ntick\n":                   "line 1: edge -1 out of range [0,",
		"obj 1 0 1.5\ntick\n":                    "line 1: frac 1.5 outside [0,1]",
		"obj 1 0 NaN\ntick\n":                    "line 1: frac NaN outside [0,1]",
		"\nqry 1 0 0 0.5\ntick\n":                "line 2: install requires k >= 1, got 0",
		"qry 1 2 0 0.5\nend 1\nqry 1 0 0 0.5\n":  "line 3: install requires k >= 1, got 0",
		"qry 1 4294967297 0 0.5\ntick\n":         `line 1: bad 32-bit integer "4294967297"`,
		"obj 4294967301 0 0.5\ntick\n":           `line 1: bad 32-bit integer "4294967301"`,
		"w 0 0\ntick\n":                          "line 1: edge 0: weight must be finite and positive, got 0",
		"w 0 +Inf\ntick\n":                       "line 1: edge 0: weight must be finite and positive, got +Inf",
		"w 77777 2\ntick\n":                      "line 1: edge 77777 out of range [0,",
		"obj 1 0 x\n":                            `line 1: bad number "x"`,
		"obj 1 0\n":                              "line 1: obj wants: obj <id> <edge> <frac>",
		"jump 1\n":                               "line 1: unknown command",
	} {
		_, err := replayScript(t, script)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("script %q: error %v, want %q", script, err, want)
		}
	}
	if out, err := replayScript(t, "del 7\ntick\n"); err != nil || out != "" {
		t.Errorf("del of an unknown object: output %q, error %v; want a no-op", out, err)
	}
}

// TestFrontDoorsAgree sends each bad report through both front doors: as a
// POST /v1/updates, in JSON and in the binary encoding (only the binary one
// can carry NaN and Inf), and as a stdin line to replay. Both run over the
// same network, in which edge 5 is dead. Both admit through the Batcher's
// checks, so each report must be rejected with the same message once the
// door's own prefix is stripped: "bad batch: <entity>: " over HTTP, and
// "line N: " plus the quoted line in replay.
func TestFrontDoorsAgree(t *testing.T) {
	const dead = 5
	newEngine := func() roadknn.Engine {
		eng := roadknn.NewIMAWith(roadknn.GenerateNetwork(60, 1), roadknn.Options{Workers: 1, Serving: true})
		eng.Step(roadknn.Updates{Topology: []roadknn.TopologyUpdate{{Op: roadknn.TopoRemove, Edge: dead}}})
		return eng
	}
	at := func(e roadknn.EdgeID, frac float64) roadknn.Position { return roadknn.Position{Edge: e, Frac: frac} }
	object := func(e roadknn.EdgeID, frac float64) []roadknn.Updates {
		return []roadknn.Updates{{Objects: []roadknn.ObjectUpdate{{ID: 1, New: at(e, frac), Insert: true}}}}
	}
	weight := func(w float64) []roadknn.Updates {
		return []roadknn.Updates{{Edges: []roadknn.EdgeUpdate{{Edge: 0, NewW: w}}}}
	}
	for _, tc := range []struct {
		name   string
		script string            // replay's input; its last line is the bad report
		posts  []roadknn.Updates // HTTP's input: each but the last is accepted and ticked
		want   string
	}{
		{"dead edge", "obj 1 5 0.5", object(dead, 0.5), "edge 5 is not live"},
		{"edge out of range", "obj 1 99999 0.5", object(99999, 0.5), "edge 99999 out of range [0,"},
		{"frac 1.5", "obj 1 0 1.5", object(0, 1.5), "frac 1.5 outside [0,1]"},
		{"frac NaN", "obj 1 0 NaN", object(0, math.NaN()), "frac NaN outside [0,1]"},
		{"k 0 on an install", "qry 1 0 0 0.5",
			[]roadknn.Updates{{Queries: []roadknn.QueryUpdate{{ID: 1, New: at(0, 0.5), Insert: true}}}},
			"install requires k >= 1, got 0"},
		{"k 0 on a reinstall", "qry 1 2 0 0.5\ntick\nend 1\nqry 1 0 0 0.5",
			[]roadknn.Updates{
				{Queries: []roadknn.QueryUpdate{{ID: 1, K: 2, New: at(0, 0.5), Insert: true}}},
				{Queries: []roadknn.QueryUpdate{{ID: 1, Delete: true}, {ID: 1, New: at(0, 0.5)}}},
			},
			"install requires k >= 1, got 0"},
		{"weight 0", "w 0 0", weight(0), "edge 0: weight must be finite and positive, got 0"},
		{"weight NaN", "w 0 NaN", weight(math.NaN()), "edge 0: weight must be finite and positive, got NaN"},
		{"weight +Inf", "w 0 +Inf", weight(math.Inf(1)), "edge 0: weight must be finite and positive, got +Inf"},
		{"weight above the ceiling", fmt.Sprintf("w 0 %d", 2*graph.MaxWeight), weight(2 * graph.MaxWeight),
			"edge 0: weight 2.097152e+06 exceeds the maximum 1048576"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines := strings.Split(tc.script, "\n")
			err := replay(newEngine(), strings.NewReader(tc.script+"\n"), io.Discard)
			wantErr := fmt.Sprintf("line %d: ", len(lines))
			if err == nil || !strings.HasPrefix(err.Error(), wantErr) {
				t.Fatalf("replay: error %v, want one starting %q", err, wantErr)
			}
			fromReplay := strings.TrimSuffix(strings.TrimPrefix(err.Error(), wantErr), fmt.Sprintf(": %q", lines[len(lines)-1]))
			if !strings.Contains(fromReplay, tc.want) {
				t.Fatalf("replay: %q, want it to contain %q", fromReplay, tc.want)
			}
			for _, enc := range []struct{ name, contentType string }{
				{"json", "application/json"}, {"binary", "application/x-roadknn-updates"},
			} {
				if _, err := serve.EncodeUpdates(enc.name, tc.posts[len(tc.posts)-1]); err != nil {
					continue // JSON has no NaN or Inf
				}
				fromHTTP := postRejected(t, enc.name, enc.contentType, tc.posts, newEngine())
				if fromHTTP != fromReplay {
					t.Errorf("%s POST: %q, replay: %q", enc.name, fromHTTP, fromReplay)
				}
			}
		})
	}
}

// postRejected posts each of posts to a fresh server over eng, ticking after
// all but the last, and returns the last one's 400 message with its "bad
// batch: <entity>: " prefix stripped.
func postRejected(t *testing.T, encoding, contentType string, posts []roadknn.Updates, eng roadknn.Engine) string {
	t.Helper()
	s := serve.New(eng, serve.Config{}) // manual ticks
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	var code int
	var msg string
	for i, u := range posts {
		body, err := serve.EncodeUpdates(encoding, u)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/v1/updates", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		code, msg = resp.StatusCode, strings.TrimSpace(string(b))
		if i == len(posts)-1 {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("setup POST %d: %d %s", i, code, msg)
		}
		if resp, err = http.Post(hs.URL+"/v1/tick", "", nil); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	rest, ok := strings.CutPrefix(msg, "bad batch: ")
	_, rest, _ = strings.Cut(rest, ": ")
	if code != http.StatusBadRequest || !ok {
		t.Fatalf("%s POST: %d %q, want a 400 bad batch", encoding, code, msg)
	}
	return rest
}
