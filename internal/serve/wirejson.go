package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// This file is the server-side decoder of the two JSON encodings of POST
// /v1/updates: one cursor over the whole body (read into the scratch's
// reused buffer) that appends reports straight into the scratch's reused
// slices, with no reflection and no allocation per report.
//
// It accepts exactly what a json.Decoder with DisallowUnknownFields accepts
// for batchRequest (for NDJSON, for each ndjsonRecord) and builds the same
// batch, bit for bit, with one deliberate difference: anything but
// whitespace after the JSON document is an error, where json.Decoder stops
// reading after the first value. FuzzDecodeJSON and FuzzDecodeNDJSON hold it
// to that. encoding/json's rules, as they apply to this shape:
//
//   - A key matches a field name exactly or, after unescaping, under
//     bytes.EqualFold: "ID", "Objects", a Kelvin sign for k and a long s in
//     "objects" all match. Any other key is an error.
//   - A repeated key decodes again into the same field, so the last value of
//     a scalar wins. A repeated array decodes its element i into the element
//     i an earlier occurrence in the document left, so a field the later
//     element omits keeps the earlier value; then it takes its own length.
//     [] and null drop the earlier elements.
//   - null leaves a scalar field or an array element as it is, empties an
//     array, unsets a topology op's "edge" assertion, and as the whole
//     document is an empty batch.
//   - Numbers follow strict JSON syntax. An integer field takes what
//     strconv.ParseInt takes at the field's bit size, so 1.0, 1e2 and
//     overflow are errors; a float field takes strconv.ParseFloat's value,
//     and 1e400 is an error.
//   - A string holding an escape or a byte >= 0x80 is unquoted by
//     encoding/json itself, so replacement characters and surrogates come
//     out as they always did. Only keys and a topology op are strings.

// Field names per JSON object, in the order of the switch that decodes them.
// They are the json tags of the wire types in serve.go and wire.go.
var (
	batchKeys  = []string{"topology", "objects", "queries", "edges"}
	topoKeys   = []string{"op", "edge", "u", "v", "w"}
	objectKeys = []string{"id", "edge", "frac", "delete"}
	queryKeys  = []string{"id", "k", "edge", "frac", "end"}
	edgeKeys   = []string{"edge", "w"}
	recordKeys = []string{"top", "obj", "qry", "edge"}
)

// decodeJSON reads one batchRequest document into sc.req.
func (sc *wireScratch) decodeJSON() error {
	if err := sc.readBody(); err != nil {
		return err
	}
	c := jsonCursor{b: sc.body.Bytes()}
	if c.ws(); c.i == len(c.b) {
		return errors.New("empty JSON body")
	}
	var hw [4]int
	req := &sc.req
	err := c.fields(batchKeys, func(f int) error {
		switch f {
		case 0:
			return jsonArray(&c, &req.Topology, &hw[0], (*jsonCursor).topoReport)
		case 1:
			return jsonArray(&c, &req.Objects, &hw[1], (*jsonCursor).objectReport)
		case 2:
			return jsonArray(&c, &req.Queries, &hw[2], (*jsonCursor).queryReport)
		default:
			return jsonArray(&c, &req.Edges, &hw[3], (*jsonCursor).edgeReport)
		}
	})
	if err != nil {
		return err
	}
	if c.ws(); c.i != len(c.b) {
		return fmt.Errorf("offset %d: data after the JSON document", c.i)
	}
	return nil
}

// decodeNDJSON reads NDJSON records into sc.req. Records may be separated
// by any whitespace, or none.
func (sc *wireScratch) decodeNDJSON() error {
	if err := sc.readBody(); err != nil {
		return err
	}
	c := jsonCursor{b: sc.body.Bytes()}
	n := 0
	for c.ws(); c.i < len(c.b); c.ws() {
		n++
		if err := c.record(&sc.req, n); err != nil {
			return err
		}
	}
	if n == 0 {
		return errors.New("empty NDJSON body")
	}
	return nil
}

// record decodes the n-th NDJSON record and appends the one report it holds
// to req. As when decoding into a fresh ndjsonRecord, whose fields are
// pointers: null unsets a kind, a kind's first value after that starts from
// a zero report, and a repeated kind decodes into the report it started.
func (c *jsonCursor) record(req *batchRequest, n int) error {
	var (
		set  [4]bool
		top  topoReport
		obj  objectReport
		qry  queryReport
		edge edgeReport
	)
	err := c.fields(recordKeys, func(f int) error {
		if null, err := c.null(); null || err != nil {
			if null {
				set[f] = false
			}
			return err
		}
		fresh := !set[f]
		set[f] = true
		switch f {
		case 0:
			if fresh {
				top = topoReport{}
			}
			return c.topoReport(&top)
		case 1:
			if fresh {
				obj = objectReport{}
			}
			return c.objectReport(&obj)
		case 2:
			if fresh {
				qry = queryReport{}
			}
			return c.queryReport(&qry)
		default:
			if fresh {
				edge = edgeReport{}
			}
			return c.edgeReport(&edge)
		}
	})
	if err != nil {
		return fmt.Errorf("record %d: %w", n, err)
	}
	count := 0
	for _, s := range set {
		if s {
			count++
		}
	}
	if count != 1 {
		return fmt.Errorf("record %d: want exactly one of top/obj/qry/edge, got %d", n, count)
	}
	switch {
	case set[0]:
		req.Topology = append(req.Topology, top)
	case set[1]:
		req.Objects = append(req.Objects, obj)
	case set[2]:
		req.Queries = append(req.Queries, qry)
	default:
		req.Edges = append(req.Edges, edge)
	}
	return nil
}

// jsonArray decodes an array field into *s, as encoding/json decodes into a
// slice: element i goes into the element i that an earlier occurrence of the
// field in this document left (*hw counts those), or else into a zeroed one
// appended in place of whatever a previous request left in *s's capacity.
// [] and null drop every earlier element.
func jsonArray[T any](c *jsonCursor, s *[]T, hw *int, elem func(*jsonCursor, *T) error) error {
	if null, err := c.null(); null || err != nil {
		*s, *hw = (*s)[:0], 0
		return err
	}
	n := 0
	for more, err := c.enter('[', ']'); ; more, err = c.more(']') {
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n < *hw {
			*s = (*s)[:n+1]
		} else {
			var zero T
			*s = append((*s)[:n], zero)
			*hw = n + 1
		}
		if err := elem(c, &(*s)[n]); err != nil {
			return err
		}
		n++
	}
	*s = (*s)[:n]
	if n == 0 {
		*hw = 0
	}
	return nil
}

func (c *jsonCursor) topoReport(tp *topoReport) error {
	return c.fields(topoKeys, func(f int) error {
		switch f {
		case 0:
			return c.op(&tp.Op)
		case 1:
			if null, err := c.null(); null || err != nil {
				if null {
					tp.Edge = nil
				}
				return err
			}
			if tp.Edge == nil {
				tp.Edge = new(int32)
			}
			return c.int32(tp.Edge)
		case 2:
			return c.int32(&tp.U)
		case 3:
			return c.int32(&tp.V)
		default:
			return c.float(&tp.W)
		}
	})
}

func (c *jsonCursor) objectReport(o *objectReport) error {
	return c.fields(objectKeys, func(f int) error {
		switch f {
		case 0:
			return c.int64(&o.ID)
		case 1:
			return c.int32(&o.Edge)
		case 2:
			return c.float(&o.Frac)
		default:
			return c.bool(&o.Delete)
		}
	})
}

func (c *jsonCursor) queryReport(q *queryReport) error {
	return c.fields(queryKeys, func(f int) error {
		switch f {
		case 0:
			return c.int32(&q.ID)
		case 1:
			n, set, err := c.integer(strconv.IntSize)
			if set {
				q.K = int(n)
			}
			return err
		case 2:
			return c.int32(&q.Edge)
		case 3:
			return c.float(&q.Frac)
		default:
			return c.bool(&q.End)
		}
	})
}

func (c *jsonCursor) edgeReport(e *edgeReport) error {
	return c.fields(edgeKeys, func(f int) error {
		if f == 0 {
			return c.int32(&e.Edge)
		}
		return c.float(&e.W)
	})
}

// jsonCursor walks one JSON text. Every method that fails returns an error
// naming the byte offset; the caller gives up on the whole body.
type jsonCursor struct {
	b []byte
	i int
}

// ws skips whitespace.
func (c *jsonCursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (c *jsonCursor) peek() byte {
	if c.ws(); c.i < len(c.b) {
		return c.b[c.i]
	}
	return 0
}

// want reports that the next token is not what the grammar or the field's
// type allows here.
func (c *jsonCursor) want(what string) error {
	if c.i >= len(c.b) {
		return fmt.Errorf("offset %d: unexpected end of JSON, want %s", c.i, what)
	}
	return fmt.Errorf("offset %d: unexpected %q, want %s", c.i, c.b[c.i], what)
}

// literal consumes the keyword lit, which the cursor's byte starts.
func (c *jsonCursor) literal(lit string) error {
	if len(c.b)-c.i < len(lit) || string(c.b[c.i:c.i+len(lit)]) != lit {
		return c.want(lit)
	}
	c.i += len(lit)
	return nil
}

// null consumes a null if one is next.
func (c *jsonCursor) null() (bool, error) {
	if c.peek() != 'n' {
		return false, nil
	}
	return true, c.literal("null")
}

// enter consumes the opening byte of an object or array and reports whether
// a first member follows.
func (c *jsonCursor) enter(open, close byte) (bool, error) {
	if c.peek() != open {
		return false, c.want(string(open))
	}
	c.i++
	if c.peek() == close {
		c.i++
		return false, nil
	}
	return true, nil
}

// more consumes the ',' or the closing byte after a member and reports
// whether another member follows.
func (c *jsonCursor) more(close byte) (bool, error) {
	switch c.peek() {
	case ',':
		c.i++
		return true, nil
	case close:
		c.i++
		return false, nil
	}
	return false, c.want("',' or '" + string(close) + "'")
}

// fields decodes an object whose keys are names: for each member it hands
// field the index of the name its key matches, and field decodes the value.
// null leaves everything as it is.
func (c *jsonCursor) fields(names []string, field func(int) error) error {
	if null, err := c.null(); null || err != nil {
		return err
	}
	for more, err := c.enter('{', '}'); ; more, err = c.more('}') {
		if err != nil || !more {
			return err
		}
		f, err := c.key(names)
		if err != nil {
			return err
		}
		if err := field(f); err != nil {
			return err
		}
	}
}

// key consumes an object key and its ':' and returns the index of the name
// in names that it matches, exactly or else under case folding.
func (c *jsonCursor) key(names []string) (int, error) {
	if c.peek() != '"' {
		return 0, c.want("a string key")
	}
	at := c.i
	tok, slow, err := c.str()
	if err != nil {
		return 0, err
	}
	if c.peek() != ':' {
		return 0, c.want("':'")
	}
	c.i++
	k := tok[1 : len(tok)-1]
	if slow {
		s, err := unquote(tok)
		if err != nil {
			return 0, err
		}
		k = []byte(s)
	}
	for f, name := range names {
		if string(k) == name {
			return f, nil
		}
	}
	for f, name := range names {
		if strings.EqualFold(string(k), name) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("offset %d: unknown field %q", at, k)
}

// str consumes a string token and returns it with its quotes, and whether
// it holds an escape or a non-ASCII byte (and so needs unquote).
func (c *jsonCursor) str() (tok []byte, slow bool, err error) {
	start := c.i
	for c.i++; c.i < len(c.b); {
		switch ch := c.b[c.i]; {
		case ch == '"':
			c.i++
			return c.b[start:c.i], slow, nil
		case ch == '\\':
			slow = true
			if c.i++; c.i == len(c.b) {
				return nil, false, c.want("an escape")
			}
			switch c.b[c.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				c.i++
			case 'u':
				c.i++
				for range 4 {
					if c.i == len(c.b) || !isHex(c.b[c.i]) {
						return nil, false, c.want("a hex digit")
					}
					c.i++
				}
			default:
				return nil, false, c.want("an escape")
			}
		case ch < 0x20:
			return nil, false, c.want("a string character")
		default:
			slow = slow || ch >= 0x80
			c.i++
		}
	}
	return nil, false, c.want(`'"'`)
}

func isHex(ch byte) bool {
	return '0' <= ch && ch <= '9' || 'a' <= ch|0x20 && ch|0x20 <= 'f'
}

// unquote returns the contents of a string token that str found slow, as
// encoding/json unquotes them.
func unquote(tok []byte) (string, error) {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", fmt.Errorf("string %s: %w", tok, err)
	}
	return s, nil
}

// op decodes a topology op's name; null leaves *v as it is.
func (c *jsonCursor) op(v *string) error {
	if null, err := c.null(); null || err != nil {
		return err
	}
	if c.peek() != '"' {
		return c.want("a string")
	}
	tok, slow, err := c.str()
	if err != nil {
		return err
	}
	switch s := tok[1 : len(tok)-1]; {
	case slow:
		*v, err = unquote(tok)
	case string(s) == topoOpAdd:
		*v = topoOpAdd
	case string(s) == topoOpRemove:
		*v = topoOpRemove
	default:
		*v = string(s)
	}
	return err
}

// bool decodes a boolean field; null leaves *v as it is.
func (c *jsonCursor) bool(v *bool) error {
	switch c.peek() {
	case 'n':
		return c.literal("null")
	case 't':
		*v = true
		return c.literal("true")
	case 'f':
		*v = false
		return c.literal("false")
	}
	return c.want("a boolean")
}

// number consumes a number token and reports whether it is an integer
// literal (no fraction, no exponent).
func (c *jsonCursor) number() (tok []byte, isInt bool, err error) {
	start := c.i
	if c.i < len(c.b) && c.b[c.i] == '-' {
		c.i++
	}
	switch {
	case c.i < len(c.b) && c.b[c.i] == '0':
		c.i++
	case c.digits() == 0:
		return nil, false, c.want("a digit")
	}
	isInt = true
	if c.i < len(c.b) && c.b[c.i] == '.' {
		isInt = false
		if c.i++; c.digits() == 0 {
			return nil, false, c.want("a digit")
		}
	}
	if c.i < len(c.b) && c.b[c.i]|0x20 == 'e' {
		isInt = false
		if c.i++; c.i < len(c.b) && (c.b[c.i] == '+' || c.b[c.i] == '-') {
			c.i++
		}
		if c.digits() == 0 {
			return nil, false, c.want("a digit")
		}
	}
	return c.b[start:c.i], isInt, nil
}

// digits consumes a run of decimal digits and returns its length.
func (c *jsonCursor) digits() int {
	start := c.i
	for c.i < len(c.b) && '0' <= c.b[c.i] && c.b[c.i] <= '9' {
		c.i++
	}
	return c.i - start
}

// integer decodes an integer of the given bit size, accepting what
// strconv.ParseInt accepts; set is false on null.
func (c *jsonCursor) integer(bits int) (n int64, set bool, err error) {
	switch ch := c.peek(); {
	case ch == 'n':
		return 0, false, c.literal("null")
	case ch != '-' && (ch < '0' || ch > '9'):
		return 0, false, c.want("a number")
	}
	at := c.i
	tok, isInt, err := c.number()
	if err != nil {
		return 0, false, err
	}
	if !isInt {
		return 0, false, fmt.Errorf("offset %d: %s is not an integer", at, tok)
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	limit := uint64(1)<<(bits-1) - 1
	if neg {
		limit++
	}
	var u uint64
	for _, d := range tok {
		if u > (limit-uint64(d-'0'))/10 {
			return 0, false, fmt.Errorf("offset %d: %s overflows a %d-bit integer", at, c.b[at:c.i], bits)
		}
		u = u*10 + uint64(d-'0')
	}
	if neg {
		return -int64(u), true, nil
	}
	return int64(u), true, nil
}

func (c *jsonCursor) int64(v *int64) error {
	n, set, err := c.integer(64)
	if set {
		*v = n
	}
	return err
}

func (c *jsonCursor) int32(v *int32) error {
	n, set, err := c.integer(32)
	if set {
		*v = int32(n)
	}
	return err
}

// float decodes a float64 field with strconv.ParseFloat; null leaves *v as
// it is.
func (c *jsonCursor) float(v *float64) error {
	switch ch := c.peek(); {
	case ch == 'n':
		return c.literal("null")
	case ch != '-' && (ch < '0' || ch > '9'):
		return c.want("a number")
	}
	at := c.i
	tok, _, err := c.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("offset %d: %s out of float64 range", at, tok)
	}
	*v = f
	return nil
}
