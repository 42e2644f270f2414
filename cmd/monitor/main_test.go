package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadknn"
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

// TestLoadNetworkRejectsBadEdges: the graph panics on an edge it cannot
// hold, so a network file naming one used to crash the process ("panic:
// graph: AddEdge with invalid endpoint 0-5"). Each is now an error naming
// the edge.
func TestLoadNetworkRejectsBadEdges(t *testing.T) {
	nodes := `"nodes":[{"X":0,"Y":0},{"X":1,"Y":0}]`
	for edge, want := range map[string]string{
		`{"U":0,"V":5,"W":1}`:  "edge 1: endpoint 0-5 outside the 2 nodes",
		`{"U":-1,"V":1,"W":1}`: "edge 1: endpoint -1-1 outside the 2 nodes",
		`{"U":1,"V":1,"W":1}`:  "edge 1: self-loop at node 1",
		`{"U":0,"V":1,"W":0}`:  "edge 1: weight must be finite and positive",
		`{"U":0,"V":1,"W":-2}`: "edge 1: weight must be finite and positive",
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
// inside roadnet.AddObject. Every bad line is now an error naming it.
func TestReplayRejectsBadLines(t *testing.T) {
	for script, want := range map[string]string{
		"qry 1 2 0 0.5\nobj 1 99999 0.5\ntick\n": "line 2: edge 99999 is not a live edge",
		"obj 1 -1 0.5\ntick\n":                   "line 1: edge -1 is not a live edge",
		"obj 1 0 1.5\ntick\n":                    "line 1: frac outside [0,1]",
		"obj 1 0 NaN\ntick\n":                    "line 1: frac outside [0,1]",
		"\nqry 1 0 0 0.5\ntick\n":                "line 2: installing a query wants k >= 1",
		"qry 1 2 0 0.5\nend 1\nqry 1 0 0 0.5\n":  "line 3: installing a query wants k >= 1",
		"qry 1 4294967297 0 0.5\ntick\n":         `line 1: bad 32-bit integer "4294967297"`,
		"obj 4294967301 0 0.5\ntick\n":           `line 1: bad 32-bit integer "4294967301"`,
		"w 0 0\ntick\n":                          "line 1: weight must be finite and positive",
		"w 0 +Inf\ntick\n":                       "line 1: weight must be finite and positive",
		"w 77777 2\ntick\n":                      "line 1: edge 77777 is not a live edge",
		"obj 1 0 x\n":                            `line 1: bad number "x"`,
		"obj 1 0\n":                              "line 1: obj wants: obj <id> <edge> <frac>",
		"del 7\n":                                "line 1: unknown object",
		"jump 1\n":                               "line 1: unknown command",
	} {
		_, err := replayScript(t, script)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("script %q: error %v, want %q", script, err, want)
		}
	}
}
