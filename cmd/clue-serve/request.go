package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"

	"clue/internal/ip"
)

// Every JSON request body is read whole, up to its limit, before it is
// decoded, and must hold exactly one JSON value: a body over its limit
// is a 413 however many of its bytes are whitespace, and bytes after
// the value are a 400, never silently dropped.

// readBody appends the whole request body to buf, reading at most
// limit bytes. On failure it writes the error reply — 413 when the
// body is over the limit, 400 otherwise — and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, bool) {
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, err)
			return buf, false
		}
	}
}

// decodeBody decodes the JSON request body, at most limit bytes, into
// v. On failure it writes the error reply and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, ok := readBody(w, r, limit, nil)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// batchRequest is a POST /lookup/batch body as encoding/json decodes
// it: decodeBatch's fallback, and the reference its fast path is
// tested against.
type batchRequest struct {
	Addrs []batchAddr `json:"addrs"`
	Path  string      `json:"path"`
}

// batchAddr is one element of a batch request's "addrs". It accepts
// only a JSON string holding a dotted quad: for a plain ip.Addr,
// encoding/json would skip a null element and answer for 0.0.0.0.
type batchAddr ip.Addr

func (a *batchAddr) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' {
		return errors.New("addrs: every element must be a string")
	}
	s := b[1 : len(b)-1]
	if bytes.IndexByte(s, '\\') >= 0 { // escaped: let encoding/json unquote it
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		s = []byte(str)
	}
	return (*ip.Addr)(a).UnmarshalText(s)
}

// decodeBatch decodes a POST /lookup/batch body into addrs, which it
// empties first, and reports whether the body asks for the snapshot
// path. A body of the shape every client sends takes scanBatch's single
// pass; any other goes through encoding/json as a batchRequest.
func decodeBatch(body []byte, addrs []ip.Addr) ([]ip.Addr, bool, error) {
	addrs, snapshot, err := scanBatch(body, addrs[:0])
	if err != errNotCanonical {
		return addrs, snapshot, err
	}
	var req batchRequest
	addrs = addrs[:0]
	if err := json.Unmarshal(body, &req); err != nil {
		return addrs, false, err
	}
	for _, a := range req.Addrs {
		addrs = append(addrs, ip.Addr(a))
	}
	return addrs, req.Path == "snapshot", nil
}

// errNotCanonical is scanBatch's answer for a body it leaves to
// encoding/json.
var errNotCanonical = errors.New("batch body is not in canonical form")

// scanBatch parses the canonical batch body in one pass, with no
// allocation: one object with an "addrs" array of strings and an
// optional "path" string, each member at most once and in either order,
// no string holding an escape or a control character, JSON whitespace
// between tokens and nothing else after the object. Each address is
// parsed straight from the body into addrs. A bad address is the
// request's error; any other departure from that shape returns
// errNotCanonical.
func scanBatch(b []byte, addrs []ip.Addr) ([]ip.Addr, bool, error) {
	var snapshot, seenAddrs, seenPath bool
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return addrs, false, errNotCanonical
	}
	for {
		key, next, ok := scanString(b, skipSpace(b, i+1))
		i = skipSpace(b, next)
		if !ok || i == len(b) || b[i] != ':' {
			return addrs, false, errNotCanonical
		}
		i = skipSpace(b, i+1)
		switch {
		case string(key) == "addrs" && !seenAddrs:
			seenAddrs = true
			var err error
			if addrs, i, err = scanAddrs(b, i, addrs); err != nil {
				return addrs, false, err
			}
		case string(key) == "path" && !seenPath:
			seenPath = true
			var path []byte
			if path, i, ok = scanString(b, i); !ok {
				return addrs, false, errNotCanonical
			}
			snapshot = string(path) == "snapshot"
		default:
			return addrs, false, errNotCanonical
		}
		i = skipSpace(b, i)
		if i == len(b) || b[i] != ',' {
			break
		}
	}
	if i == len(b) || b[i] != '}' || skipSpace(b, i+1) != len(b) {
		return addrs, false, errNotCanonical
	}
	return addrs, snapshot, nil
}

// scanAddrs parses the array of address strings at b[i:] into addrs
// and returns the index after its closing bracket.
func scanAddrs(b []byte, i int, addrs []ip.Addr) ([]ip.Addr, int, error) {
	if i == len(b) || b[i] != '[' {
		return addrs, i, errNotCanonical
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return addrs, i + 1, nil
	}
	for {
		s, next, ok := scanString(b, i)
		if !ok {
			return addrs, i, errNotCanonical
		}
		var a ip.Addr
		if err := a.UnmarshalText(s); err != nil {
			return addrs, i, err
		}
		addrs = append(addrs, a)
		i = skipSpace(b, next)
		if i == len(b) {
			return addrs, i, errNotCanonical
		}
		switch b[i] {
		case ']':
			return addrs, i + 1, nil
		case ',':
			i = skipSpace(b, i+1)
		default:
			return addrs, i, errNotCanonical
		}
	}
}

// scanString returns the contents of the JSON string at b[i:] and the
// index after its closing quote. ok is false when there is no string
// there or it holds an escape or a control character.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < 0x20:
			return nil, i, false
		}
	}
	return nil, i, false
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
