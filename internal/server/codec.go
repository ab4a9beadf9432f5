package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"geoind/internal/geo"
)

// The request codec of /v1/report, /v1/report:batch and /v1/trace. A body is
// read whole into a pooled buffer and parsed by a small parser that accepts
// only the canonical shape of its schema: the known keys spelled exactly, each
// at most once and in any order, JSON numbers, printable-ASCII strings without
// escapes, and nothing but whitespace after the value. Every other body —
// case-variant keys, escapes, null, duplicate keys, trailing data, a read
// error, a body over the limit — is decoded by encoding/json with
// DisallowUnknownFields from the same bytes, so it gets exactly the status
// and error text it always had. The fallback is the error path, not a
// second implementation: FuzzReportDecode pins that whatever the parser
// accepts, encoding/json accepts as the same value.
//
// Their 200 responses are appended into the same pooled buffer with
// encoding/json's float formatting, byte for byte what json.Encoder writes.

// Body limits of the three endpoints.
const (
	reportBodyLimit = 1 << 16
	batchBodyLimit  = 1 << 22
	traceBodyLimit  = 1 << 16
)

// maxPooledBuf bounds the buffers returned to the pool, so one 4 MiB batch
// cannot pin its body for the life of the process.
const maxPooledBuf = 1 << 16

// codecBuf is the pooled per-request scratch: the body, then the response,
// in b; the parsed batch entries in reqs.
type codecBuf struct {
	b    []byte
	reqs []ReportRequest
}

var codecPool = sync.Pool{New: func() any { return &codecBuf{b: make([]byte, 0, 2048)} }}

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

func (c *codecBuf) release() {
	if cap(c.b) <= maxPooledBuf && cap(c.reqs) <= MaxBatchSize {
		codecPool.Put(c)
	}
}

// readBody reads r's body into c.b and returns nil when c.b holds all of
// it. A read that stops short — a read error, or more than limit bytes —
// returns the reader the fallback decodes instead, which replays the body as
// the decoder would have read it from the request: the bytes read, then the
// read error or the rest of the body through http.MaxBytesReader, so an
// over-limit body fails with that reader's error only if the decoder reads
// past the limit.
func (c *codecBuf) readBody(w http.ResponseWriter, r *http.Request, limit int) io.Reader {
	b := c.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):min(cap(b), limit+1)])
		b = b[:len(b)+n]
		c.b = b
		switch {
		case len(b) > limit:
			return http.MaxBytesReader(w, io.NopCloser(io.MultiReader(bytes.NewReader(b), r.Body)), int64(limit))
		case err == io.EOF:
			return nil
		case err != nil:
			return io.MultiReader(bytes.NewReader(b), errReader{err})
		}
	}
}

// decodeReport reads and decodes a /v1/report body.
func (c *codecBuf) decodeReport(w http.ResponseWriter, r *http.Request, req *ReportRequest) error {
	src := c.readBody(w, r, reportBodyLimit)
	if src == nil && parseReport(c.b, req) {
		return nil
	}
	return fallback(c, src, req)
}

// decodeBatch reads and decodes a /v1/report:batch body; the entries live
// in c until it is released.
func (c *codecBuf) decodeBatch(w http.ResponseWriter, r *http.Request, reqs *[]ReportRequest) error {
	src := c.readBody(w, r, batchBodyLimit)
	if src == nil && c.parseBatch() {
		*reqs = c.reqs
		return nil
	}
	return fallback(c, src, reqs)
}

// decodeTrace reads and decodes a /v1/trace body.
func (c *codecBuf) decodeTrace(w http.ResponseWriter, r *http.Request, req *TraceRequest) error {
	src := c.readBody(w, r, traceBodyLimit)
	if src == nil && parseTrace(c.b, req) {
		return nil
	}
	return fallback(c, src, req)
}

// fallback decodes a body the parser did not accept into v with
// encoding/json, from src, or from c.b when readBody read all of it.
func fallback[T any](c *codecBuf, src io.Reader, v *T) error {
	if src == nil {
		src = bytes.NewReader(c.b)
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	*v = *new(T) // drop what the parser filled in before it gave up
	return dec.Decode(v)
}

// errReader replays the error that ended a body read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

func parseReport(b []byte, req *ReportRequest) bool {
	p := parser{b: b}
	return p.object(req, nil, "") && p.end()
}

func parseTrace(b []byte, req *TraceRequest) bool {
	var r ReportRequest
	p := parser{b: b}
	if !p.object(&r, &req.Mode, "") || !p.end() {
		return false
	}
	req.UserID, req.X, req.Y = r.UserID, r.X, r.Y
	return true
}

// parseBatch parses the batch body in c.b into c.reqs. An entry whose
// user_id repeats the previous entry's shares its string.
func (c *codecBuf) parseBatch() bool {
	p := parser{b: c.b}
	c.reqs = c.reqs[:0]
	return p.lit('[') && (p.lit(']') || p.entries(&c.reqs)) && p.end()
}

// entries consumes the entries of a non-empty batch and its closing ']'.
func (p *parser) entries(out *[]ReportRequest) bool {
	prev := ""
	for {
		*out = append(*out, ReportRequest{})
		req := &(*out)[len(*out)-1]
		if !p.object(req, nil, prev) {
			return false
		}
		prev = req.UserID
		if p.lit(']') {
			return true
		}
		if !p.lit(',') {
			return false
		}
	}
}

// parser is a cursor over a request body in the canonical shape; every
// method reports false on anything else.
type parser struct {
	b []byte
	i int
}

func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes whitespace and then c, if c comes next.
func (p *parser) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (p *parser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// str consumes a string of printable ASCII without escapes and returns its
// contents.
func (p *parser) str() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// num consumes a number in JSON's grammar and parses it as encoding/json
// does.
func (p *parser) num() (float64, bool) {
	p.ws()
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(b, i); j > i {
			i = j
		} else {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	p.i = i
	return f, err == nil
}

// digits returns the index after the run of decimal digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// object consumes one {"user_id":…,"x":…,"y":…} object into req, plus a
// "mode" key into *mode when mode is non-nil. A user_id equal to prev
// shares prev's string.
func (p *parser) object(req *ReportRequest, mode *string, prev string) bool {
	if !p.lit('{') {
		return false
	}
	if p.lit('}') {
		return true
	}
	var seen [4]bool
	for {
		key, ok := p.str()
		if !ok || !p.lit(':') {
			return false
		}
		var k int
		switch string(key) {
		case "user_id":
			k = 0
			v, ok := p.str()
			if !ok {
				return false
			}
			if string(v) == prev {
				req.UserID = prev
			} else {
				req.UserID = string(v)
			}
		case "x":
			k = 1
			if req.X, ok = p.num(); !ok {
				return false
			}
		case "y":
			k = 2
			if req.Y, ok = p.num(); !ok {
				return false
			}
		case "mode":
			k = 3
			v, ok := p.str()
			if mode == nil || !ok {
				return false
			}
			switch string(v) {
			case modePredictive:
				*mode = modePredictive
			case modeIndependent:
				*mode = modeIndependent
			default:
				*mode = string(v)
			}
		default:
			return false
		}
		if seen[k] {
			return false
		}
		seen[k] = true
		if p.lit('}') {
			return true
		}
		if !p.lit(',') {
			return false
		}
	}
}

// jsonContentType is the Content-Type header value of every JSON response;
// the success path installs it without allocating.
var jsonContentType = []string{"application/json"}

// respBuf appends a JSON response body. A NaN or infinite float makes the
// body unencodable, as it is for encoding/json.
type respBuf struct {
	b   []byte
	bad bool
}

func (r *respBuf) raw(s string) { r.b = append(r.b, s...) }

// float appends f as encoding/json formats a float64: like ES6, in 'e'
// format below 1e-6 and from 1e21 up, with a one-digit negative exponent
// not zero-padded.
func (r *respBuf) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		r.bad = true
		return
	}
	r.b = appendFloat(r.b, f)
}

func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// tail appends the fields every success body ends with: eps_spent, the
// remaining budget when rem is non-nil, the mechanism and the newline
// json.Encoder writes.
func (r *respBuf) tail(s *Server, eps float64, rem *float64) {
	r.raw(`,"eps_spent":`)
	r.float(eps)
	if rem != nil {
		r.raw(`,"remaining_budget":`)
		r.float(*rem)
	}
	r.raw(`,"mechanism":`)
	r.raw(s.nameJSON)
	r.raw("}\n")
}

// send writes the body as a 200; an unencodable body is dropped after the
// header, which is what writeJSON does with it.
func (r *respBuf) send(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if !r.bad {
		_, _ = w.Write(r.b)
	}
}

// point appends the "x" and "y" fields of z.
func (r *respBuf) point(z geo.Point) {
	r.raw(`"x":`)
	r.float(z.X)
	r.raw(`,"y":`)
	r.float(z.Y)
}

// writeReport writes a ReportResponse.
func (s *Server) writeReport(w http.ResponseWriter, c *codecBuf, z geo.Point, rem *float64) {
	r := respBuf{b: append(c.b[:0], '{')}
	r.point(z)
	r.tail(s, s.eps, rem)
	r.send(w)
	c.b = r.b
}

// writeBatch writes a BatchReportResponse.
func (s *Server) writeBatch(w http.ResponseWriter, c *codecBuf, zs []geo.Point, rem *float64) {
	r := respBuf{b: append(c.b[:0], `{"results":[`...)}
	for i, z := range zs {
		if i > 0 {
			r.raw(",")
		}
		r.raw("{")
		r.point(z)
		r.raw("}")
	}
	r.raw("]")
	r.tail(s, float64(len(zs))*s.eps, rem)
	r.send(w)
	c.b = r.b
}

// writeTrace writes a TraceResponse.
func (s *Server) writeTrace(w http.ResponseWriter, c *codecBuf, z geo.Point, spent float64, fresh bool, mode string, rem float64) {
	r := respBuf{b: append(c.b[:0], '{')}
	r.point(z)
	r.raw(`,"eps_spent":`)
	r.float(spent)
	if fresh {
		r.raw(`,"fresh":true,"mode":"`)
	} else {
		r.raw(`,"fresh":false,"mode":"`)
	}
	r.raw(mode)
	r.raw(`","remaining_budget":`)
	r.float(rem)
	r.raw(`,"mechanism":`)
	r.raw(s.nameJSON)
	r.raw("}\n")
	r.send(w)
	c.b = r.b
}
