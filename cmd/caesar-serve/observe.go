package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"github.com/caesar-sketch/caesar"
)

// The /observe body path. Every client sends one shape, {"flows":[…]}
// with decimal IDs, and scanFlows parses it in place from a pooled
// buffer. Every other body, and every body whose read failed, goes to
// decodeObserve (encoding/json) over the same bytes followed by the same
// read error, so the two paths accept, decode and reject alike.

type observeRequest struct {
	Flows []caesar.FlowID `json:"flows"`
}

// observeBuf is the pooled scratch of one /observe request: the body
// bytes, the flows scanned out of them, and the reply.
type observeBuf struct {
	body  []byte
	flows []caesar.FlowID
	reply []byte
}

// maxPooledBytes caps the buffers an observeBuf may take back to the
// pool, so one large body does not pin its memory in a pool slot.
const maxPooledBytes = 64 << 10

var observePool = sync.Pool{New: func() any { return new(observeBuf) }}

// release returns b to the pool unless a large body grew it past
// maxPooledBytes. Nothing may use b or the flows it returned afterwards.
func (b *observeBuf) release() {
	if cap(b.body) > maxPooledBytes || cap(b.flows) > maxPooledBytes/8 { // 8-byte flow IDs
		return
	}
	observePool.Put(b)
}

// decode reads an /observe body and returns its flows. body is the
// request body under its MaxBytesReader; size is the request's
// Content-Length, which presizes the buffer when it is within maxBody.
// The returned flows alias b on the fast path.
func (b *observeBuf) decode(body io.Reader, size, maxBody int64) ([]caesar.FlowID, error) {
	var err error
	b.body, err = readBody(body, b.body[:0], size, maxBody)
	if err == nil {
		var ok bool
		if b.flows, ok = scanFlows(b.body, b.flows); ok {
			return b.flows, nil
		}
	}
	var src io.Reader = bytes.NewReader(b.body)
	if err != nil {
		src = io.MultiReader(src, errReader{err})
	}
	return decodeObserve(src)
}

// decodeObserve is the general /observe decoder and the reference the
// fast path is tested against. Like any json.Decoder it reads one value
// and ignores whatever follows it.
func decodeObserve(body io.Reader) ([]caesar.FlowID, error) {
	var req observeRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, err
	}
	return req.Flows, nil
}

// errReader replays a body's read error after its buffered bytes.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// readBody appends all of body to buf, presized from the request's
// Content-Length when 0 < size <= maxBody. It returns what was read
// before any error, and the error, nil at EOF.
func readBody(body io.Reader, buf []byte, size, maxBody int64) ([]byte, error) {
	if size > 0 && size <= maxBody {
		buf = slices.Grow(buf, int(size))
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

var (
	observePrefix = []byte(`{"flows":[`)
	comma         = []byte{','}
)

// scanFlows parses the one /observe body shape every client sends into
// dst[:0]: optional JSON whitespace, {"flows":[, zero or more JSON
// unsigned integers up to math.MaxUint64 separated by commas, ]}, then
// only whitespace. It reports false for anything else, including bodies
// encoding/json accepts (other spacing, other field spellings, extra
// fields, trailing bytes), so it never accepts a body the decoder would
// reject or decode differently.
//
//caesar:hotpath parses every /observe body in place; slices.Grow is a no-op for a reused dst
func scanFlows(body []byte, dst []caesar.FlowID) ([]caesar.FlowID, bool) {
	i := skipSpace(body, 0)
	if !bytes.HasPrefix(body[i:], observePrefix) {
		return dst, false
	}
	i += len(observePrefix)
	// Each flow after the first follows a comma, so the commas bound the
	// flows and dst grows at most once.
	dst = slices.Grow(dst[:0], bytes.Count(body[i:], comma)+1)
	if i < len(body) && body[i] == ']' {
		i++
	} else {
		for {
			v, end, ok := scanUint(body, i)
			if !ok {
				return dst, false
			}
			dst = dst[:len(dst)+1]
			dst[len(dst)-1] = caesar.FlowID(v)
			if end == len(body) {
				return dst, false
			}
			i = end + 1
			if body[end] == ']' {
				break
			}
			if body[end] != ',' {
				return dst, false
			}
		}
	}
	if i == len(body) || body[i] != '}' {
		return dst, false
	}
	return dst, skipSpace(body, i+1) == len(body)
}

// scanUint parses the JSON unsigned integer at body[i:]: digits with no
// leading zero but 0 itself. ok is false when there is none or it
// exceeds math.MaxUint64.
func scanUint(body []byte, i int) (v uint64, end int, ok bool) {
	const cutoff = math.MaxUint64 / 10
	start := i
	for ; i < len(body); i++ {
		d := body[i] - '0'
		if d > 9 {
			break
		}
		if v > cutoff || v == cutoff && d > math.MaxUint64%10 {
			return 0, i, false
		}
		v = v*10 + uint64(d)
	}
	if i == start || body[start] == '0' && i-start > 1 {
		return 0, i, false
	}
	return v, i, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(body []byte, i int) int {
	for ; i < len(body); i++ {
		switch body[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return i
		}
	}
	return i
}

// writeObserved answers an accepted /observe with {"observed":n} and a
// newline: the bytes writeJSON writes for map[string]int{"observed": n}.
func (b *observeBuf) writeObserved(rw http.ResponseWriter, n int) {
	b.reply = append(b.reply[:0], `{"observed":`...)
	b.reply = strconv.AppendInt(b.reply, int64(n), 10)
	b.reply = append(b.reply, "}\n"...)
	rw.Header().Set("Content-Type", "application/json")
	if _, err := rw.Write(b.reply); err != nil {
		log.Printf("caesar-serve: encode response: %v", err)
	}
}
