package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"roadknn"
	"roadknn/internal/core"
	"roadknn/internal/wal"
)

// referenceJSON decodes body as the server did with encoding/json: a
// json.Decoder with DisallowUnknownFields into a fresh batchRequest, plus
// the one rule the cursor decoder adds, that only whitespace may follow the
// document.
func referenceJSON(body []byte) (*batchRequest, error) {
	req := &batchRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return nil, errors.New("data after the document")
	}
	return req, nil
}

// referenceNDJSON decodes body with encoding/json's record loop, as the
// server did before the cursor decoder.
func referenceNDJSON(body []byte) (*batchRequest, error) {
	req := &batchRequest{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	for line := 1; ; line++ {
		var rec ndjsonRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF && line > 1 {
				return req, nil
			}
			return nil, err
		}
		set := 0
		if rec.Top != nil {
			req.Topology = append(req.Topology, *rec.Top)
			set++
		}
		if rec.Obj != nil {
			req.Objects = append(req.Objects, *rec.Obj)
			set++
		}
		if rec.Qry != nil {
			req.Queries = append(req.Queries, *rec.Qry)
			set++
		}
		if rec.Edge != nil {
			req.Edges = append(req.Edges, *rec.Edge)
			set++
		}
		if set != 1 {
			return nil, fmt.Errorf("record %d: got %d reports", line, set)
		}
	}
}

// FuzzDecodeJSON holds the cursor decoder to encoding/json: the same bodies
// are accepted, and an accepted body yields the same batch, bit for bit.
// One scratch serves every input, so an element a previous input left in
// the reused slices would show.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range jsonSeeds() {
		f.Add(seed)
	}
	sc := getWireScratch(nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		differential(t, sc, body, referenceJSON, (*wireScratch).decodeJSON)
	})
}

// FuzzDecodeNDJSON is FuzzDecodeJSON for the NDJSON record loop.
func FuzzDecodeNDJSON(f *testing.F) {
	for _, seed := range ndjsonSeeds() {
		f.Add(seed)
	}
	sc := getWireScratch(nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		differential(t, sc, body, referenceNDJSON, (*wireScratch).decodeNDJSON)
	})
}

func differential(t *testing.T, sc *wireScratch, body []byte,
	reference func([]byte) (*batchRequest, error), decode func(*wireScratch) error) {
	t.Helper()
	want, werr := reference(body)
	sc.reset(bytes.NewReader(body))
	gerr := decode(sc)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("%q: accepted, encoding/json says %v; decoded %+v", body, werr, sc.req)
	case werr == nil && gerr != nil:
		t.Fatalf("%q: rejected (%v), encoding/json accepts %+v", body, gerr, *want)
	case werr == nil && !batchesEqual(want, &sc.req):
		t.Fatalf("%q: decoded\n %+v\nencoding/json decodes\n %+v", body, sc.req, *want)
	}
}

// jsonSeeds is FuzzDecodeJSON's seed corpus.
func jsonSeeds() [][]byte {
	rng := rand.New(rand.NewSource(11))
	var seeds [][]byte
	for _, n := range []int{0, 1, 4, 16, 40} {
		b, err := json.Marshal(randomBatch(rng, n))
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, b)
	}
	full := `{"topology":[{"op":"add","edge":4,"u":1,"v":2,"w":1.5},{"op":"remove","edge":3}],` +
		`"objects":[{"id":1,"edge":3,"frac":0.5,"delete":true},{"id":-7,"edge":1,"frac":0.25}],` +
		`"queries":[{"id":4,"k":9,"edge":2,"frac":0.5,"end":true}],"edges":[{"edge":6,"w":2.5}]}`
	for _, s := range []string{
		full,
		// A reused scratch must not leak full's fields into these.
		`{"objects":[{"id":2}],"queries":[{"id":5}],"topology":[{"op":"add"}],"edges":[{}]}`,
		// Keys: case folding, Kelvin sign and long s, escapes.
		`{"OBJECTS":[{"ID":1,"Edge":2,"FRAC":0.5,"Delete":true}],"Queries":[{"iD":3,"K":2,"eNd":false}]}`,
		"{\"queries\":[{\"id\":1,\"\u212a\":3,\"edge\":0,\"frac\":0.5}]}", // Kelvin sign for k
		`{"\u212a":1}`,
		"{\"object\u017f\":[{\"id\":1}],\"edge\u017f\":[]}", // long s
		`{"objects":[{"id":1,"frAc":0.5}]}`,
		`{"objects":[{"i\d":1}]}`,
		`{"objécts":[]}`,
		"{\"obj\xffects\":[]}",
		// Escaped op values, lone surrogates, invalid UTF-8, control bytes.
		`{"topology":[{"op":"add"},{"op":"remove"},{"op":"\ud800"},{"op":"a\udc00dd"}]}`,
		`{"topology":[{"op":"😀"},{"op":"\/\b\f\n\r\t\"\\"}]}`,
		"{\"topology\":[{\"op\":\"ad\xffd\"},{\"op\":\"\xe2\x82\"}]}",
		"{\"topology\":[{\"op\":\"a\x01\"}]}",
		`{"topology":[{"op":"\x"}]}`,
		`{"topology":[{"op":"\u12"}]}`,
		// Duplicate keys and repeated arrays.
		`{"objects":[{"id":1,"id":2,"edge":1,"edge":2}]}`,
		`{"objects":[{"id":1,"edge":3,"frac":0.5,"delete":true},{"id":9,"edge":9}],"objects":[{"id":2}]}`,
		`{"objects":[{"id":1,"edge":3},{"id":9,"edge":9}],"objects":[{"id":2}],"objects":[null,{"id":4}]}`,
		`{"objects":[{"id":1,"edge":3},{"id":9,"edge":9}],"objects":[],"objects":[null,{"id":4}]}`,
		`{"objects":[{"id":1,"edge":3},{"id":9,"edge":9}],"objects":null,"objects":[null,{"id":4}]}`,
		`{"topology":[{"op":"add","edge":4}],"topology":[{"op":"remove"}]}`,
		`{"topology":[{"op":"add","edge":4,"edge":null}]}`,
		`{"topology":[{"op":"add","edge":null,"edge":4,"edge":5}]}`,
		`{"edges":[{"edge":1,"w":2}],"edges":[{"w":3},{"edge":2}]}`,
		// null at every position.
		`null`,
		` null `,
		`{"topology":null,"objects":null,"queries":null,"edges":null}`,
		`{"objects":[null]}`,
		`{"objects":[null,null,{"id":1}]}`,
		`{"objects":[{"id":null,"edge":null,"frac":null,"delete":null}]}`,
		`{"queries":[{"id":null,"k":null,"edge":null,"frac":null,"end":null}]}`,
		`{"topology":[{"op":null,"edge":null,"u":null,"v":null,"w":null}]}`,
		`{"edges":[null,{"edge":null,"w":null}]}`,
		`{"objects":[nul]}`,
		`{"objects":[nulll]}`,
		// Numbers.
		`{"objects":[{"id":1.0}]}`,
		`{"objects":[{"id":1e2}]}`,
		`{"objects":[{"id":-0,"frac":-0}]}`,
		`{"objects":[{"id":01}]}`,
		`{"objects":[{"frac":01.5}]}`,
		`{"objects":[{"frac":1e400}]}`,
		`{"objects":[{"frac":-1e400}]}`,
		`{"objects":[{"frac":1e-400}]}`,
		`{"objects":[{"frac":-0.0}]}`,
		`{"objects":[{"frac":.5}]}`,
		`{"objects":[{"frac":+1}]}`,
		`{"objects":[{"frac":1.}]}`,
		`{"objects":[{"frac":1e}]}`,
		`{"objects":[{"frac":1E+2}]}`,
		`{"objects":[{"frac":-}]}`,
		`{"objects":[{"frac":0.1000000000000000055511151231257827021181583404541015625}]}`,
		`{"objects":[{"edge":2147483647},{"edge":-2147483648}]}`,
		`{"objects":[{"edge":2147483648}]}`,
		`{"objects":[{"edge":-2147483649}]}`,
		`{"objects":[{"id":9223372036854775807},{"id":-9223372036854775808}]}`,
		`{"objects":[{"id":9223372036854775808}]}`,
		`{"objects":[{"id":-9223372036854775809}]}`,
		`{"objects":[{"id":100000000000000000000000}]}`,
		`{"queries":[{"k":9223372036854775807}]}`,
		`{"queries":[{"k":4294967297}]}`,
		`{"topology":[{"edge":2147483648}]}`,
		// Type mismatches.
		`[]`, `5`, `"x"`, `true`, `{"objects":{}}`, `{"objects":[5]}`, `{"objects":[[]]}`,
		`{"objects":[{"id":"5"}]}`, `{"objects":[{"delete":1}]}`, `{"objects":[{"delete":"true"}]}`,
		`{"topology":[{"op":5}]}`, `{"topology":[{"op":true}]}`, `{"topology":[{"edge":"1"}]}`,
		// Unknown fields, deep nesting in one.
		`{"objects":[{"id":1,"edge":0,"frac":0.5,"speed":3}]}`,
		`{"objects":[],"vehicles":[]}`,
		`{"x":` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `}`,
		`{"objects":[{"id":1,"x":{"y":[1,{"z":null}]}}]}`,
		// Syntax and whitespace.
		" \t\r\n{ \"objects\" : [ { \"id\" : 1 , \"edge\" : 2 } ] } \n",
		`{"objects":[{"id":1},]}`,
		`{"objects":[{"id":1,}]}`,
		`{"objects":[{"id":1}],}`,
		`{"objects":[{"id" 1}]}`,
		`{objects:[]}`,
		`{'objects':[]}`,
		"\ufeff{}",
		"{}\x00",
		// Bodies: empty, whitespace, trailing data.
		``, `   `, `{}`, `{} `,
		`{"objects":[{"id":1,"edge":0,"frac":0.5}]}{"objects":[{"id":2,"edge":0,"frac":0.5}]}`,
		`{"objects":[]} garbage`,
		`{} {}`,
		`{}]`,
	} {
		seeds = append(seeds, []byte(s))
	}
	for i := range len(full) {
		seeds = append(seeds, []byte(full[:i]))
	}
	return seeds
}

// ndjsonSeeds is FuzzDecodeNDJSON's seed corpus.
func ndjsonSeeds() [][]byte {
	rng := rand.New(rand.NewSource(13))
	var seeds [][]byte
	for _, n := range []int{1, 4, 16, 40} {
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, randomBatch(rng, n)); err != nil {
			panic(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	valid := `{"top":{"op":"add","edge":4,"u":1,"v":2,"w":1.5}}` + "\n" + `{"obj":{"id":1,"edge":3,"frac":0.5}}` +
		"\n" + `{"qry":{"id":4,"k":9,"edge":2,"frac":0.5,"end":true}}` + "\n" + `{"edge":{"edge":6,"w":2.5}}` + "\n"
	for _, s := range []string{
		valid,
		`{"obj":{"id":1}}{"obj":{"id":2}}`,
		" \t{\"obj\":{\"id\":1}}\r\n\r\n  {\"qry\":{\"id\":2}} ",
		`{"OBJ":{"ID":1}}`,
		`{"\u006fbj":{"id":1}}`,
		"{\"qry\":{\"id\":1,\"\u212a\":2}}",
		`{"obj":{"id":1,"edge":2},"obj":{"id":3}}`,
		`{"obj":{"id":1,"edge":2},"obj":null}`,
		`{"obj":null,"obj":{"id":1}}`,
		`{"obj":{"id":1,"edge":2},"obj":null,"obj":{"id":3}}`,
		`{"top":{"op":"add","edge":1},"top":{"op":"remove"}}`,
		`{"obj":{"id":1},"qry":{"id":1}}`,
		`{"obj":{"id":1},"qry":null}`,
		`{"obj":null}`,
		`{"obj":[]}`,
		`{"obj":{"id":1.5}}`,
		`{"obj":{"id":1,"speed":2}}`,
		`{"unknown":{}}`,
		`{}`, `null`, `5`, `[]`, ``, "\n\n",
		`{"obj":{"id":1}} garbage`,
		`{"obj":{"id":1}}]`,
	} {
		seeds = append(seeds, []byte(s))
	}
	for i := range len(valid) {
		seeds = append(seeds, []byte(valid[:i]))
	}
	return seeds
}

// TestDecodeRejectsDataAfterDocument: encoding/json's Decoder reads one
// value and stopped there, so a second document in a JSON body was dropped
// without a word and garbage after the first was ignored. Both front doors
// now answer 400 and the pending batch does not change.
func TestDecodeRejectsDataAfterDocument(t *testing.T) {
	s, hs := newTestServer(t)
	post(t, hs.URL+"/v1/updates", `{"objects":[{"id":1,"edge":0,"frac":0.5}]}`)
	pending := func() []byte {
		return wal.EncodeRecords(nil, []wal.BatchRecord{{Seq: 1, Updates: s.batch.Preview()}})
	}
	before := pending()
	for _, body := range []string{
		`{"objects":[{"id":2,"edge":0,"frac":0.5}]}{"objects":[{"id":3,"edge":0,"frac":0.5}]}`,
		`{"objects":[{"id":2,"edge":0,"frac":0.5}]} garbage`,
		`{"objects":[{"id":2,"edge":0,"frac":0.5}]}]`,
	} {
		if _, err := DecodeUpdates("json", []byte(body)); err == nil {
			t.Errorf("DecodeUpdates accepted %s", body)
		}
		if got := postRaw(t, hs.URL+"/v1/updates", "application/json", []byte(body)); got != http.StatusBadRequest {
			t.Errorf("POST %s got status %d, want 400", body, got)
		}
	}
	if !bytes.Equal(pending(), before) {
		t.Fatal("a rejected body changed the pending batch")
	}
	// Trailing whitespace is not data.
	if n, err := DecodeUpdates("json", []byte("{\"objects\":[{\"id\":2,\"edge\":0,\"frac\":0.5}]} \r\n\t")); err != nil || n != 1 {
		t.Fatalf("trailing whitespace: DecodeUpdates = %d, %v", n, err)
	}
}

// ingestBody is one ingest_heavy-shaped request of n reports: object moves
// over a 100K-object, 10K-edge population with full-precision fractions.
func ingestBody(encoding string, n int) []byte {
	rng := rand.New(rand.NewSource(int64(n)))
	u := core.Updates{Objects: make([]core.ObjectUpdate, n)}
	for i := range u.Objects {
		u.Objects[i] = core.ObjectUpdate{ID: roadknn.ObjectID(rng.Intn(100000)),
			New: roadknn.Position{Edge: roadknn.EdgeID(rng.Intn(10000)), Frac: rng.Float64()}}
	}
	b, err := EncodeUpdates(encoding, u)
	if err != nil {
		panic(err)
	}
	return b
}

// TestDecodeAllocsFlatInReports: a warmed scratch decodes a body with a
// constant number of allocations, whatever the number of reports.
func TestDecodeAllocsFlatInReports(t *testing.T) {
	for _, encoding := range []string{"json", "ndjson"} {
		decode := (*wireScratch).decodeJSON
		if encoding == "ndjson" {
			decode = (*wireScratch).decodeNDJSON
		}
		allocs := func(n int) float64 {
			body := ingestBody(encoding, n)
			sc := getWireScratch(bytes.NewReader(body))
			defer putWireScratch(sc)
			return testing.AllocsPerRun(20, func() {
				sc.reset(bytes.NewReader(body))
				if err := decode(sc); err != nil || len(sc.req.Objects) != n {
					t.Fatalf("%s: decoded %d of %d reports: %v", encoding, len(sc.req.Objects), n, err)
				}
			})
		}
		if small, large := allocs(64), allocs(1024); large > small {
			t.Errorf("%s: %v allocations for 1,024 reports, %v for 64", encoding, large, small)
		}
	}
}

// BenchmarkDecodeUpdates times DecodeUpdates, the handler's decode path, on
// one ingest_heavy-shaped body of 1,024 reports in each encoding.
func BenchmarkDecodeUpdates(b *testing.B) {
	for _, encoding := range []string{"json", "ndjson", "binary"} {
		b.Run(encoding, func(b *testing.B) {
			body := ingestBody(encoding, 1024)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeUpdates(encoding, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
