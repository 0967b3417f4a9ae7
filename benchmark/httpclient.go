package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"clue/internal/ip"
	"clue/internal/ribio"
	"clue/internal/serve"
)

// httpClient is the data-plane client's view of one clue-serve: a
// keep-alive connection pool over loopback, with every byte that crosses
// the sockets counted.
type httpClient struct {
	base string
	c    *http.Client

	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

func newHTTPClient(addr string, conns int) *httpClient {
	h := &httpClient{base: "http://" + addr}
	d := &net.Dialer{Timeout: 2 * time.Second}
	h.c = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns + 2,
			MaxIdleConnsPerHost: conns + 2,
			DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
				nc, err := d.DialContext(ctx, network, a)
				if err != nil {
					return nil, err
				}
				return &countingConn{Conn: nc, h: h}, nil
			},
		},
	}
	return h
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

type countingConn struct {
	net.Conn
	h *httpClient
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.h.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.h.bytesOut.Add(int64(n))
	return n, err
}

// do sends one request and reads the whole response body into buf.
func (h *httpClient) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// batchBody encodes one POST /lookup/batch request (worker path).
func batchBody(addrs []ip.Addr) []byte {
	strs := make([]string, len(addrs))
	for i, a := range addrs {
		strs[i] = a.String()
	}
	b, _ := json.Marshal(struct {
		Addrs []string `json:"addrs"`
	}{strs})
	return b
}

// batchReply is the part of a /lookup/batch response the harness checks.
type batchReply struct {
	Count   int `json:"count"`
	Results []struct {
		NextHop uint32 `json:"next_hop"`
	} `json:"results"`
}

// lookupBatch posts a pre-encoded batch. With decode it returns the
// decoded hops; without, it checks only the status and the reply's count
// field, so the client's JSON cost stays small and constant.
func (h *httpClient) lookupBatch(body []byte, n int, decode bool, buf *bytes.Buffer, hops []ip.NextHop) ([]ip.NextHop, error) {
	status, err := h.do(http.MethodPost, "/lookup/batch", body, buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST /lookup/batch: status %d: %.200s", status, buf.Bytes())
	}
	if !decode {
		want := append(strconv.AppendInt([]byte(`{"count":`), int64(n), 10), ',')
		if !bytes.HasPrefix(buf.Bytes(), want) {
			return nil, fmt.Errorf("POST /lookup/batch: reply does not start with %s: %.80s", want, buf.Bytes())
		}
		return nil, nil
	}
	var rep batchReply
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("POST /lookup/batch: %w", err)
	}
	if rep.Count != n || len(rep.Results) != n {
		return nil, fmt.Errorf("POST /lookup/batch: %d results for %d addresses", len(rep.Results), n)
	}
	hops = hops[:0]
	for _, r := range rep.Results {
		hops = append(hops, ip.NextHop(r.NextHop))
	}
	return hops, nil
}

// lookupOne is GET /lookup, the smallest request the service has.
func (h *httpClient) lookupOne(a ip.Addr, snapshotPath bool, buf *bytes.Buffer) (ip.NextHop, error) {
	path := "/lookup?addr=" + a.String()
	if snapshotPath {
		path += "&path=snapshot"
	}
	status, err := h.do(http.MethodGet, path, nil, buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /lookup: status %d: %.200s", status, buf.Bytes())
	}
	var rep struct {
		NextHop uint32 `json:"next_hop"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		return 0, fmt.Errorf("GET /lookup: %w", err)
	}
	return ip.NextHop(rep.NextHop), nil
}

// update posts one announce or withdraw; the service answers once the
// snapshot containing it is published.
func (h *httpClient) update(r ribio.UpdateRecord, buf *bytes.Buffer) error {
	path := "/announce"
	req := struct {
		Prefix  string `json:"prefix"`
		NextHop uint32 `json:"next_hop,omitempty"`
	}{Prefix: r.Prefix.String(), NextHop: uint32(r.NextHop)}
	if r.Withdraw {
		path, req.NextHop = "/withdraw", 0
	}
	body, _ := json.Marshal(req)
	status, err := h.do(http.MethodPost, path, body, buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %.200s", path, status, buf.Bytes())
	}
	return nil
}

func (h *httpClient) healthz() error {
	var buf bytes.Buffer
	status, err := h.do(http.MethodGet, "/healthz", nil, &buf)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !bytes.HasPrefix(buf.Bytes(), []byte("ok")) {
		return fmt.Errorf("GET /healthz: status %d: %.100s", status, buf.Bytes())
	}
	return nil
}

func (h *httpClient) stats() (serve.Stats, error) {
	var buf bytes.Buffer
	var st serve.Stats
	status, err := h.do(http.MethodGet, "/stats", nil, &buf)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", status)
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		return st, fmt.Errorf("GET /stats: %w", err)
	}
	return st, nil
}
