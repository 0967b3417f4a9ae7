package main

import (
	"net/http"
	"strconv"
	"sync"

	"clue/internal/ip"
	"clue/internal/serve"
)

// POST /lookup/batch is the service's hot path, so its reply is
// appended as bytes rather than encoded by reflection. It must write
// exactly what encoding/json writes for the reference structs in
// reply_test.go — same field order, same omitempty rules, same trailing
// newline — which the tests and FuzzLookupReply check byte for byte.
// Every string field is a dotted quad, a CIDR prefix or a fixed path
// name, none of which needs JSON escaping.

// batchScratch is the per-request working set of the batch handler,
// pooled so a steady request stream allocates none of it.
type batchScratch struct {
	body  []byte
	buf   []byte
	addrs []ip.Addr
	dres  []serve.Result
	lres  []serve.LookupResult
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// writeReply sends b as a JSON reply. The length is known, so it is
// declared: a batch reply outgrows net/http's buffer, which would
// otherwise send it chunked.
func writeReply(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}

// appendBatchHead opens a POST /lookup/batch reply: count, path,
// snapshot_version and the results array.
func appendBatchHead(b []byte, count int, path string, version uint64) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	b = append(b, `,"path":"`...)
	b = append(b, path...)
	b = append(b, `","snapshot_version":`...)
	b = strconv.AppendUint(b, version, 10)
	return append(b, `,"results":[`...)
}

// appendItem appends the fields every result item starts with: addr,
// next_hop, prefix (only when found) and found. The object is left
// open.
func appendItem(b []byte, i int, a ip.Addr, hop ip.NextHop, pfx ip.Prefix, found bool) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	b = append(b, `{"addr":"`...)
	b = a.AppendTo(b)
	b = append(b, `","next_hop":`...)
	b = strconv.AppendUint(b, uint64(hop), 10)
	if found {
		b = append(b, `,"prefix":"`...)
		b = pfx.AppendTo(b)
		b = append(b, '"')
	}
	b = append(b, `,"found":`...)
	return strconv.AppendBool(b, found)
}

// appendBatchSnapshot appends the snapshot-path batch reply for addrs
// answered by res at version.
func appendBatchSnapshot(b []byte, addrs []ip.Addr, res []serve.LookupResult, version uint64) []byte {
	b = appendBatchHead(b, len(addrs), "snapshot", version)
	for i, r := range res {
		b = appendItem(b, i, addrs[i], r.Hop, r.Prefix, r.Found)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

// appendBatchWorker appends the worker-path batch reply for addrs
// answered by res; the reply's snapshot_version is the last answer's.
// worker and diverted are omitempty.
func appendBatchWorker(b []byte, addrs []ip.Addr, res []serve.Result) []byte {
	var version uint64
	if len(res) > 0 {
		version = res[len(res)-1].Version
	}
	b = appendBatchHead(b, len(addrs), "worker", version)
	for i, r := range res {
		b = appendItem(b, i, addrs[i], r.Hop, r.Prefix, r.Found)
		if r.Worker != 0 {
			b = append(b, `,"worker":`...)
			b = strconv.AppendInt(b, int64(r.Worker), 10)
		}
		if r.Diverted {
			b = append(b, `,"diverted":true`...)
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}
