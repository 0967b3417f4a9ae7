package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"clue/internal/ip"
	"clue/internal/serve"
)

// The reply structs the batch handler handed encoding/json before its
// replies were appended, kept as the reference the appended replies
// must equal byte for byte.
type refBatchItem struct {
	Addr     string `json:"addr"`
	NextHop  uint32 `json:"next_hop"`
	Prefix   string `json:"prefix,omitempty"`
	Found    bool   `json:"found"`
	Worker   int    `json:"worker,omitempty"`
	Diverted bool   `json:"diverted,omitempty"`
}

type refBatchResp struct {
	Count   int            `json:"count"`
	Path    string         `json:"path"`
	Version uint64         `json:"snapshot_version"`
	Results []refBatchItem `json:"results"`
}

func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The ref* builders fill the reference structs the way the handler did
// before the replies were appended.

func refBatchWorker(t testing.TB, addrs []ip.Addr, results []serve.Result) []byte {
	resp := refBatchResp{Count: len(addrs), Path: "worker", Results: make([]refBatchItem, len(addrs))}
	for i, res := range results {
		item := refBatchItem{
			Addr: addrs[i].String(), NextHop: uint32(res.Hop), Found: res.Found,
			Worker: res.Worker, Diverted: res.Diverted,
		}
		if res.Found {
			item.Prefix = res.Prefix.String()
		}
		resp.Results[i] = item
		resp.Version = res.Version
	}
	return refEncode(t, resp)
}

func refBatchSnapshot(t testing.TB, addrs []ip.Addr, results []serve.LookupResult, version uint64) []byte {
	resp := refBatchResp{Count: len(addrs), Path: "snapshot", Version: version, Results: make([]refBatchItem, len(addrs))}
	for i, res := range results {
		item := refBatchItem{Addr: addrs[i].String(), NextHop: uint32(res.Hop), Found: res.Found}
		if res.Found {
			item.Prefix = res.Prefix.String()
		}
		resp.Results[i] = item
	}
	return refEncode(t, resp)
}

// checkReplies runs both batch reply encoders over addrs and results
// and compares each with the encoding/json reference.
func checkReplies(t testing.TB, addrs []ip.Addr, results []serve.Result) {
	t.Helper()
	check := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	lres := make([]serve.LookupResult, len(results))
	for i, r := range results {
		lres[i] = serve.LookupResult{Hop: r.Hop, Prefix: r.Prefix, Found: r.Found}
	}
	version := uint64(0)
	if len(results) > 0 {
		version = results[0].Version
	}
	check("POST /lookup/batch worker", appendBatchWorker(nil, addrs, results), refBatchWorker(t, addrs, results))
	check("POST /lookup/batch snapshot", appendBatchSnapshot(nil, addrs, lres, version), refBatchSnapshot(t, addrs, lres, version))
}

func TestReplyBytesMatchEncodingJSON(t *testing.T) {
	pfx := ip.MustParsePrefix("203.0.113.0/24")
	cases := []struct {
		name string
		addr ip.Addr
		res  serve.Result
	}{
		{"not found, worker 0", ip.MustParseAddr("8.8.8.8"), serve.Result{Version: 1}},
		{"not found, worker 2", ip.MustParseAddr("8.8.4.4"), serve.Result{Home: 2, Worker: 2, Version: 9}},
		{"found, worker 0", ip.MustParseAddr("203.0.113.9"), serve.Result{Hop: 77, Prefix: pfx, Found: true, Version: 3}},
		{"found, home 1 worker 3", ip.MustParseAddr("203.0.113.200"), serve.Result{Hop: 77, Prefix: pfx, Found: true, Home: 1, Worker: 3, Version: 3}},
		{"found, diverted", ip.MustParseAddr("203.0.113.1"), serve.Result{Hop: 5, Prefix: pfx, Found: true, Home: 3, Worker: 1, Diverted: true, Version: 4}},
		{"not found, diverted to worker 0", ip.MustParseAddr("0.0.0.0"), serve.Result{Home: 1, Diverted: true, Version: 4}},
		{"default route, extreme values", ip.MustParseAddr("255.255.255.255"),
			serve.Result{Hop: math.MaxUint32, Found: true, Home: 7, Worker: 7, Version: math.MaxUint64}},
		{"host route", ip.MustParseAddr("10.0.0.1"), serve.Result{Hop: 1, Prefix: ip.MustParsePrefix("10.0.0.1/32"), Found: true, Version: 2}},
	}
	var addrs []ip.Addr
	var results []serve.Result
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkReplies(t, []ip.Addr{tc.addr}, []serve.Result{tc.res})
		})
		addrs, results = append(addrs, tc.addr), append(results, tc.res)
	}
	t.Run("whole batch", func(t *testing.T) { checkReplies(t, addrs, results) })
}

// FuzzLookupReply feeds random addresses and results through both
// batch reply encoders and holds each to the encoding/json reference.
func FuzzLookupReply(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(7), uint32(0x0a000000), uint8(8), true, 1, 2, true, uint64(3))
	f.Add(uint32(0), uint32(0), uint32(0), uint8(0), false, 0, 0, false, uint64(0))
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32), uint8(32), true, -1, math.MaxInt, false, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, addr, hop, bits uint32, plen uint8, found bool, home, worker int, diverted bool, version uint64) {
		res := serve.Result{
			Hop: ip.NextHop(hop), Prefix: ip.Prefix{Bits: ip.Addr(bits), Len: plen}, Found: found,
			Home: home, Worker: worker, Diverted: diverted, Version: version,
		}
		// A second answer with the flags flipped exercises the item
		// separators and the other omitempty branches.
		other := res
		other.Found, other.Diverted, other.Worker, other.Version = !found, !diverted, home, version/2
		checkReplies(t, []ip.Addr{ip.Addr(addr), ip.Addr(bits)}, []serve.Result{res, other})
	})
}

// batchBody is a POST /lookup/batch body for n distinct addresses.
func batchBody(n int, path string) (string, []ip.Addr) {
	addrs := make([]ip.Addr, n)
	strs := make([]string, n)
	for i := range addrs {
		addrs[i] = ip.Addr(uint32(i) * 2654435761)
		strs[i] = addrs[i].String()
	}
	b, _ := json.Marshal(struct {
		Addrs []string `json:"addrs"`
		Path  string   `json:"path,omitempty"`
	}{strs, path})
	return string(b), addrs
}

// TestBatchHandlerAllocs bounds the allocations of one 256-address
// POST /lookup/batch through the handler, request and recorder
// included: a constant, not one or more per address. The body is read
// into the pooled scratch and parsed in place, so what is left is the
// request, the recorder, the body limit and the reply headers: 22 on
// either path, two of them the Content-Length value and its slice. Under -race, sync.Pool drops a random share of what is
// put back, so the scratch is often rebuilt and only a looser bound
// holds.
func TestBatchHandlerAllocs(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	h := newHandler(rt, nil)
	limit := 24.0
	if raceEnabled {
		limit = 64
	}
	for _, path := range []string{"", "snapshot"} {
		body, _ := batchBody(256, path)
		allocs := testing.AllocsPerRun(50, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/lookup/batch", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("path %q: status %d: %s", path, rec.Code, rec.Body.Bytes())
			}
		})
		t.Logf("path %q: %.0f allocs per 256-address batch", path, allocs)
		if allocs > limit {
			t.Errorf("path %q: %.0f allocs per 256-address batch, want <= %.0f", path, allocs, limit)
		}
	}
}

// TestBatchHandlerReplyBytes drives the real handler on the snapshot
// path, whose answers are deterministic, from several goroutines at once
// with batches of different sizes: each request owns its pooled scratch
// until it returns, so every reply body must equal the reference built
// from the runtime's own answers.
func TestBatchHandlerReplyBytes(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	h := newHandler(rt, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		body, addrs := batchBody(64+g*97, "snapshot")
		results, version := rt.LookupBatch(addrs, nil)
		want := refBatchSnapshot(t, addrs, results, version)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/lookup/batch", strings.NewReader(body)))
				if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("batch reply: %d %q\n got %s\nwant %s", rec.Code, ct, rec.Body.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBatchReplyContentLength sends a batch through a real listener: a
// reply far larger than net/http's write buffer must arrive with its
// length declared, not chunked, and with the same bytes.
func TestBatchReplyContentLength(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	srv := httptest.NewServer(newHandler(rt, nil))
	defer srv.Close()
	body, addrs := batchBody(1024, "snapshot")
	results, version := rt.LookupBatch(addrs, nil)
	want := refBatchSnapshot(t, addrs, results, version)
	resp, err := srv.Client().Post(srv.URL+"/lookup/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %q for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(got))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reply bytes changed in transit:\n got %s\nwant %s", got, want)
	}
}

// TestBatchAddrsMustBeStrings pins that every element of "addrs" is a
// JSON string. encoding/json leaves an ip.Addr untouched for a null
// element, so a reused decode slice would answer for, and echo back, an
// address from an earlier request; each such body must be a 400 that
// carries nothing from the request before it.
func TestBatchAddrsMustBeStrings(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	h := newHandler(rt, nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/lookup/batch", strings.NewReader(body)))
		return rec
	}
	const earlier = "198.51.100.77"
	for _, bad := range []string{
		`{"addrs":[null]}`,
		`{"addrs":[null,null,null]}`,
		`{"addrs":["10.0.0.1",null]}`,
		`{"addrs":["10.0.0.1"],"addrs":[null]}`,
		`{"addrs":[7]}`,
		`{"addrs":[true]}`,
		`{"addrs":[{}]}`,
		`{"addrs":[[]]}`,
		`{"addrs":[""]}`,
	} {
		// Repeat so the pooled scratch from the valid request is all but
		// certainly the one the bad request gets.
		for i := 0; i < 8; i++ {
			if rec := post(`{"addrs":["` + earlier + `","` + earlier + `","` + earlier + `"]}`); rec.Code != http.StatusOK {
				t.Fatalf("valid batch: %d %s", rec.Code, rec.Body.Bytes())
			}
			rec := post(bad)
			if rec.Code != http.StatusBadRequest || strings.Contains(rec.Body.String(), earlier) {
				t.Fatalf("POST /lookup/batch %s after a batch for %s: %d %s, want 400 without that address",
					bad, earlier, rec.Code, rec.Body.Bytes())
			}
		}
	}
	// JSON escapes in a string are still unquoted, as they were when
	// "addrs" decoded into []string.
	rec := post(`{"addrs":["1.2.3.\u0034"],"path":"snapshot"}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"addr":"1.2.3.4"`) {
		t.Fatalf("escaped address: %d %s", rec.Code, rec.Body.Bytes())
	}
}
