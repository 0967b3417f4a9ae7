package main

import (
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"clue/internal/ip"
	"clue/internal/serve"
)

// bodySite is one endpoint that decodes a JSON body: a valid body, its
// limit, and the status that body is answered with.
type bodySite struct {
	url, body string
	limit     int
	ok        int
}

// bodySites lists every JSON decode site. Each body changes the state
// newBodyTest sets up: the announced route is new, the withdrawn one is
// in the table and the recovered worker has failed.
var bodySites = []bodySite{
	{"/lookup/batch", `{"addrs":["1.2.3.4","5.6.7.8"]}`, 1 << 20, http.StatusOK},
	{"/announce", `{"prefix":"198.51.100.0/24","next_hop":9}`, 1 << 16, http.StatusOK},
	{"/withdraw", `{"prefix":"192.0.2.0/24"}`, 1 << 16, http.StatusOK},
	{"/admin/worker/recover", `{"worker":1}`, 1 << 12, http.StatusOK},
}

// newBodyTest returns a handler over a fresh runtime set up for
// bodySites.
func newBodyTest(t *testing.T) (*serve.Runtime, http.Handler) {
	t.Helper()
	rt := newTestRuntime(t, 2)
	t.Cleanup(rt.Close)
	if _, err := rt.Announce(ip.MustParsePrefix("192.0.2.0/24"), 5); err != nil {
		t.Fatal(err)
	}
	if err := rt.FailWorker(1); err != nil {
		t.Fatal(err)
	}
	return rt, newHandler(rt, nil)
}

func post(h http.Handler, url, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", url, strings.NewReader(body)))
	return rec
}

// TestOversizedBodyIs413 pins the body limits of the four JSON decode
// sites. The limit counts every byte, whitespace included, before or
// after the value: a valid body padded to exactly the limit is served,
// one byte more is 413, not a 400 for a truncated body.
func TestOversizedBodyIs413(t *testing.T) {
	for _, over := range []int{0, 1} {
		for _, leading := range []bool{true, false} {
			_, h := newBodyTest(t)
			for _, tc := range bodySites {
				pad := strings.Repeat(" ", tc.limit+over-len(tc.body))
				body := tc.body + pad
				if leading {
					body = pad + tc.body
				}
				want := tc.ok
				if over > 0 {
					want = http.StatusRequestEntityTooLarge
				}
				if rec := post(h, tc.url, body); rec.Code != want {
					t.Errorf("POST %s with a %d-byte body (leading padding %v): %d %s, want %d",
						tc.url, len(body), leading, rec.Code, rec.Body.Bytes(), want)
				}
			}
		}
	}
}

// TestBodyIsOneJSONValue pins that every decode site takes exactly one
// JSON value: a second value or any other bytes after the first are a
// 400, and nothing in the body is applied.
func TestBodyIsOneJSONValue(t *testing.T) {
	rt, h := newBodyTest(t)
	for _, tc := range bodySites {
		for _, trail := range []string{
			`{"addrs":["5.6.7.8"],"prefix":"203.0.113.0/24","next_hop":7,"worker":0}`,
			` xyz`,
			`,`,
			"\n0",
		} {
			before := rt.Snapshot().Routes()
			rec := post(h, tc.url, tc.body+trail)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %s: %d %s, want 400", tc.url, tc.body+trail, rec.Code, rec.Body.Bytes())
			}
			if !slices.Equal(rt.Snapshot().Routes(), before) {
				t.Errorf("POST %s %s changed the table", tc.url, tc.body+trail)
			}
			if rt.WorkerStates()[1] != serve.WorkerFailed {
				t.Fatalf("POST %s %s recovered worker 1", tc.url, tc.body+trail)
			}
		}
	}
	// Each body is applied once the trailing bytes are whitespace.
	for _, tc := range bodySites {
		if rec := post(h, tc.url, tc.body+" \t\r\n"); rec.Code != tc.ok {
			t.Errorf("POST %s %s: %d %s, want %d", tc.url, tc.body, rec.Code, rec.Body.Bytes(), tc.ok)
		}
	}
}

// TestScanBatchShapes pins which batch bodies take the single-pass
// parser and which are left to encoding/json.
func TestScanBatchShapes(t *testing.T) {
	for _, body := range []string{
		`{"addrs":["1.2.3.4"]}`,
		`{"path":"snapshot","addrs":["1.2.3.4","5.6.7.8"]}`,
		" \t\r\n{ \"addrs\" : [ \"1.2.3.4\" , \"5.6.7.8\" ] , \"path\" : \"\" } \n",
		`{"addrs":[]}`,
		`{"addrs":["1.2.3"]}`, // canonical, with a bad address: the request's error
	} {
		if _, _, err := scanBatch([]byte(body), nil); err == errNotCanonical {
			t.Errorf("%s left to encoding/json", body)
		}
	}
	for _, body := range []string{
		``, `null`, `[]`, `{}`, `{"addrs":null}`, `{"addrs":["1.2.3.4"],"path":null}`,
		`{"addrs":["1.2.3.4"],"addrs":["5.6.7.8"]}`,
		`{"addrs":["1.2.3.4"],"n":1}`, `{"Addrs":["1.2.3.4"]}`,
		`{"addrs":["1.2.3.\u0034"]}`, `{"\u0061ddrs":["1.2.3.4"]}`,
		"{\"addrs\":[\"1.2.3.4\"],\"path\":\"snap\tshot\"}",
		`{"addrs":["1.2.3.4",]}`, `{"addrs":["1.2.3.4"],}`, `{"addrs":[7]}`,
		`{"addrs":["1.2.3.4"]} x`, `{"addrs":["1.2.3.4"]}{}`, `{"addrs":["1.2.3.4"]`,
	} {
		if _, _, err := scanBatch([]byte(body), nil); err != errNotCanonical {
			t.Errorf("%s: scanBatch error %v, want errNotCanonical", body, err)
		}
	}
}

// FuzzBatchRequest holds the batch handler's decode to encoding/json:
// for any body, decodeBatch and json.Unmarshal into a batchRequest
// must agree on whether it is accepted, on the addresses and on the
// path. And the body json.Marshal writes for any addresses, with or
// without a path, must take scanBatch's fast path: without one it is
// the body every request of the benchmark's http_batch workload sends.
func FuzzBatchRequest(f *testing.F) {
	for _, body := range []string{
		// TestBatchAddrsMustBeStrings.
		`{"addrs":[null]}`, `{"addrs":[null,null,null]}`, `{"addrs":["10.0.0.1",null]}`,
		`{"addrs":["10.0.0.1"],"addrs":[null]}`, `{"addrs":[7]}`, `{"addrs":[true]}`,
		`{"addrs":[{}]}`, `{"addrs":[[]]}`, `{"addrs":[""]}`,
		`{"addrs":["1.2.3.4"],"path":"snapshot"}`,
		// Whitespace around every token; path first; duplicate and
		// unknown keys; escapes; null; trailing bytes; not an object.
		" \t\r\n{ \"addrs\" : [ \"1.2.3.4\" , \"5.6.7.8\" ] , \"path\" : \"snapshot\" } \r\n",
		`{"path":"snapshot","addrs":["1.2.3.4"]}`,
		`{"path":"snapshot","addrs":["1.2.3.4"],"path":""}`,
		`{"addrs":["1.2.3.4"],"addrs":["5.6.7.8"]}`,
		`{"addrs":["1.2.3.4"],"extra":[1,{"a":"b"}]}`, `{"ADDRS":["1.2.3.4"]}`,
		`{"addrs":["1.2.3.\u0034"],"path":"snap\u0073hot"}`, `{"\u0061ddrs":["1.2.3.4"]}`,
		`null`, `{"addrs":null}`, `{"addrs":["1.2.3.4"],"path":null}`,
		"{\"addrs\":[\"1.2.3.4\"],\"path\":\"snap\tshot\"}",
		`{"addrs":["1.2.3.4"]} xyz`, `{"addrs":["1.2.3.4"]}{"addrs":["5.6.7.8"]}`,
		`[]`, `{"addrs":[]}`, `{}`, ``,
	} {
		f.Add([]byte(body), false)
	}
	for _, path := range []string{"", "snapshot"} {
		body, _ := batchBody(maxBatchAddrs, path)
		f.Add([]byte(body), path != "")
	}
	f.Fuzz(func(t *testing.T, body []byte, snapshot bool) {
		if len(body) > 1<<20 {
			return
		}
		addrs, snap, err := decodeBatch(body, nil)
		var ref batchRequest
		refErr := json.Unmarshal(body, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: decodeBatch error %v, encoding/json error %v", body, err, refErr)
		}
		if err == nil {
			checkDecoded(t, body, addrs, snap, ref)
		}

		// The same bytes as packed addresses, in the client's body.
		strs := make([]string, min(len(body)/4, maxBatchAddrs))
		for i := range strs {
			strs[i] = ip.Addr(binary.BigEndian.Uint32(body[4*i:])).String()
		}
		path := ""
		if snapshot {
			path = "snapshot"
		}
		canon, err := json.Marshal(struct {
			Addrs []string `json:"addrs"`
			Path  string   `json:"path,omitempty"`
		}{strs, path})
		if err != nil {
			t.Fatal(err)
		}
		addrs, snap, err = scanBatch(canon, nil)
		if err != nil {
			t.Fatalf("%s: scanBatch: %v", canon, err)
		}
		var canonRef batchRequest
		if err := json.Unmarshal(canon, &canonRef); err != nil {
			t.Fatal(err)
		}
		checkDecoded(t, canon, addrs, snap, canonRef)
	})
}

// checkDecoded compares a decoded batch body with its encoding/json
// reference.
func checkDecoded(t *testing.T, body []byte, addrs []ip.Addr, snapshot bool, ref batchRequest) {
	t.Helper()
	want := make([]ip.Addr, len(ref.Addrs))
	for i, a := range ref.Addrs {
		want[i] = ip.Addr(a)
	}
	if !slices.Equal(addrs, want) || snapshot != (ref.Path == "snapshot") {
		t.Fatalf("%q: decoded %v snapshot=%v, encoding/json %v path %q", body, addrs, snapshot, want, ref.Path)
	}
}
