package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/caesar-sketch/caesar"
)

// observeCase is one /observe body. limit is the body cap (0 = the
// default), and a truncated body's reader fails with
// io.ErrUnexpectedEOF after the bytes, as net/http's does when the
// client sends fewer bytes than its Content-Length.
type observeCase struct {
	name      string
	body      string
	limit     int64
	truncated bool
	status    int
}

var observeCases = []observeCase{
	{name: "fast", body: `{"flows":[1,2,3]}`, status: 200},
	{name: "fast-max-uint64", body: `{"flows":[18446744073709551615,0,10]}`, status: 200},
	{name: "fast-empty", body: `{"flows":[]}`, status: 200},
	{name: "fast-whitespace", body: " \t\r\n{\"flows\":[7]} \n", status: 200},
	{name: "spaced", body: `{ "flows" : [ 1 , 2 ] }`, status: 200},
	{name: "field-case", body: `{"Flows":[1,2]}`, status: 200},
	{name: "field-upper", body: `{"FLOWS":[3]}`, status: 200},
	{name: "unknown-field", body: `{"flows":[1],"other":2}`, status: 200},
	{name: "null", body: `{"flows":null}`, status: 200},
	{name: "duplicate-key", body: `{"flows":[1],"flows":[2,3]}`, status: 200},
	{name: "trailing-bytes", body: `{"flows":[4]}garbage`, status: 200},
	{name: "trailing-value", body: `{"flows":[4]}{"flows":[5]}`, status: 200},
	{name: "leading-zero", body: `{"flows":[01]}`, status: 400},
	{name: "negative", body: `{"flows":[-1]}`, status: 400},
	{name: "fraction", body: `{"flows":[1.5]}`, status: 400},
	{name: "exponent", body: `{"flows":[1e3]}`, status: 400},
	{name: "string", body: `{"flows":["1"]}`, status: 400},
	{name: "overflow", body: `{"flows":[18446744073709551616]}`, status: 400},
	{name: "trailing-comma", body: `{"flows":[1,]}`, status: 400},
	{name: "leading-comma", body: `{"flows":[,1]}`, status: 400},
	{name: "unclosed", body: `{"flows":[1]`, status: 400},
	{name: "array", body: `[1,2]`, status: 400},
	{name: "empty", body: ``, status: 400},
	{name: "truncated", body: `{"flows":[1,2`, truncated: true, status: 400},
	{name: "truncated-after-value", body: `{"flows":[1,2]}`, truncated: true, status: 200},
	{name: "over-limit", body: `{"flows":[` + strings.Repeat("12345,", 20) + `6]}`, limit: 64, status: 413},
	{name: "over-limit-after-value", body: `{"flows":[1]}` + strings.Repeat(" ", 100), limit: 64, status: 200},
}

// truncatedReader yields its bytes, then fails like a body cut short.
type truncatedReader struct{ r io.Reader }

func (t truncatedReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func caseBody(body []byte, truncated bool) io.ReadCloser {
	if truncated {
		return io.NopCloser(truncatedReader{bytes.NewReader(body)})
	}
	return io.NopCloser(bytes.NewReader(body))
}

// observeStatus is the handler's status for an /observe body that failed
// to decode: 413 past the body cap, 400 otherwise.
func observeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// referenceObserve is what the handler answered before the fast path:
// encoding/json straight off the capped body.
func referenceObserve(body []byte, limit int64, truncated bool) ([]caesar.FlowID, error) {
	return decodeObserve(http.MaxBytesReader(httptest.NewRecorder(), caseBody(body, truncated), limit))
}

// TestServeObserveBodies runs every case through the handler and checks
// the status, the reply bytes and the ledger against encoding/json.
func TestServeObserveBodies(t *testing.T) {
	for _, c := range observeCases {
		t.Run(c.name, func(t *testing.T) {
			srv := newServer(chaosWindow(t, caesar.ShardedOptions{}), serveOptions{maxBody: c.limit})
			h := srv.handler()
			want, wantErr := referenceObserve([]byte(c.body), srv.opts.maxBody, c.truncated)
			status := http.StatusOK
			if wantErr != nil {
				status = observeStatus(wantErr)
			}
			if status != c.status {
				t.Fatalf("reference answers %d (flows %v, err %v), case says %d", status, want, wantErr, c.status)
			}

			req := httptest.NewRequest(http.MethodPost, "/observe", caseBody([]byte(c.body), c.truncated))
			req.ContentLength = int64(len(c.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.status {
				t.Fatalf("status %d, want %d (body %q)", rec.Code, c.status, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q", ct)
			}
			if c.status == 200 {
				var reply bytes.Buffer
				if err := json.NewEncoder(&reply).Encode(map[string]int{"observed": len(want)}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec.Body.Bytes(), reply.Bytes()) {
					t.Fatalf("reply %q, want %q", rec.Body, reply.Bytes())
				}
			}

			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/drops", nil))
			var dr dropsResponse
			if err := json.NewDecoder(rec.Body).Decode(&dr); err != nil {
				t.Fatal(err)
			}
			if dr.IngestedPackets != uint64(len(want)) || dr.ShedPackets != 0 {
				t.Fatalf("/drops = %+v, want %d ingested and nothing shed", dr, len(want))
			}
		})
	}
}

// FuzzObserveBody checks the fast decode against the reference on
// arbitrary bodies, caps and truncations: both accept with equal flows,
// or both reject with the same status and message.
func FuzzObserveBody(f *testing.F) {
	for _, c := range observeCases {
		limit := c.limit
		if limit == 0 {
			limit = 1 << 15
		}
		f.Add([]byte(c.body), uint16(limit), c.truncated)
	}
	b := new(observeBuf) // reused across inputs, as the pool reuses it
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, truncated bool) {
		maxBody := int64(limit)
		want, wantErr := referenceObserve(body, maxBody, truncated)
		capped := http.MaxBytesReader(httptest.NewRecorder(), caseBody(body, truncated), maxBody)
		got, err := b.decode(capped, int64(len(body)), maxBody)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decode %q: err %v, reference err %v", body, err, wantErr)
		case err != nil:
			if observeStatus(err) != observeStatus(wantErr) || err.Error() != wantErr.Error() {
				t.Fatalf("decode %q: rejected with %v, reference %v", body, err, wantErr)
			}
		case !slices.Equal(got, want):
			t.Fatalf("decode %q: flows %v, reference %v", body, got, want)
		}
	})
}

// TestObserveScanZeroAllocs is the runtime twin of scanFlows'
// //caesar:hotpath annotation: over a warmed buffer the scan of a
// benchmark-shaped body (512 twenty-digit IDs) allocates nothing.
func TestObserveScanZeroAllocs(t *testing.T) {
	want := make([]caesar.FlowID, 512)
	body := []byte(`{"flows":[`)
	for i := range want {
		want[i] = caesar.FlowID(1e19 + uint64(i)*0x9e3779b97f4a7)
		if i > 0 {
			body = append(body, ',')
		}
		body = strconv.AppendUint(body, uint64(want[i]), 10)
	}
	body = append(body, "]}"...)

	dst, ok := scanFlows(body, nil)
	if !ok || !slices.Equal(dst, want) {
		t.Fatalf("scanFlows = %v (ok %v), want the %d encoded flows", len(dst), ok, len(want))
	}
	if allocs := testing.AllocsPerRun(100, func() { dst, ok = scanFlows(body, dst) }); allocs != 0 || !ok {
		t.Fatalf("scanFlows allocates %.1f times per body over a warmed buffer (ok %v), want 0", allocs, ok)
	}
}
