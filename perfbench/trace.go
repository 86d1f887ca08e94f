package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer boundaries are timed from outside the program: around the SDK
// calls (op spans), in the SDK's http.RoundTripper (http spans, from
// RoundTrip start to body close), around the CDN tier's handler (cdn
// spans) and around the origin handler installed as the tier's Upstream
// (origin spans). One request id, carried in spanHeader, ties the http,
// cdn and origin spans of an exchange together; an http span's parent is
// the op span that issued it. Spans stay in memory until the run ends.

const spanHeader = "X-Perfbench-Span"

type span struct {
	layer     string // op, http, cdn, origin
	kind      string // op kind, or request class at the origin
	id        uint64
	parent    uint64
	start     int64 // ns since the instruments were created
	end       int64
	reqBytes  int64
	respBytes int64
	bodyBytes int64 // http: request body
	status    int
	hit       bool    // cdn: served from the tier's cache
	ttlSec    float64 // origin: issued shared TTL from Cache-Control
}

// issuedTTL is the newest TTL the origin issued for a query path.
type issuedTTL struct {
	at  int64 // virtual ns
	ttl time.Duration
}

// instruments holds the always-on counters and, in a traced run, the
// spans and the purge bookkeeping.
type instruments struct {
	trace bool
	clk   *vclock
	t0    time.Time

	originRequests atomic.Int64
	nextID         atomic.Uint64

	mu    sync.Mutex
	spans []span
	// ttlIssued and the two sample slices feed the ttl and invalidb
	// per-layer metrics.
	ttlIssued     map[string]issuedTTL
	ttlOverActual []float64
	pendingPurge  map[string][]time.Time // query path → write acks awaiting a purge
	lastPurge     map[string]time.Time
	writeToPurge  []float64 // µs, ack → first purge after it
	// purgedBeforeAck counts affected paths purged while their write was
	// still awaiting its ack; such a purge may come from an earlier
	// write, so it gives no delay.
	purgedBeforeAck int
}

func newInstruments(trace bool, clk *vclock) *instruments {
	return &instruments{
		trace:        trace,
		clk:          clk,
		t0:           time.Now(),
		ttlIssued:    map[string]issuedTTL{},
		pendingPurge: map[string][]time.Time{},
		lastPurge:    map[string]time.Time{},
	}
}

func (in *instruments) now() int64 { return int64(time.Since(in.t0)) }

func (in *instruments) record(sp span) {
	in.mu.Lock()
	in.spans = append(in.spans, sp)
	in.mu.Unlock()
}

// takeSpans hands over the spans recorded so far and starts afresh.
func (in *instruments) takeSpans() []span {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.spans
	in.spans = nil
	return out
}

// beginOp opens an op span on a session; endOp closes it.
func (in *instruments) beginOp(s *session) (uint64, int64) {
	if !in.trace {
		return 0, 0
	}
	id := in.nextID.Add(1)
	s.rt.op.Store(id)
	return id, in.now()
}

func (in *instruments) endOp(s *session, id uint64, start int64, kind string) {
	if !in.trace {
		return
	}
	s.rt.op.Store(0)
	in.record(span{layer: "op", kind: kind, id: id, start: start, end: in.now()})
}

// sessionTransport is the SDK's transport: it tags each exchange with a
// request id and times it until the response body is closed.
type sessionTransport struct {
	in   *instruments
	base http.RoundTripper
	op   atomic.Uint64 // op span of the owning load goroutine's current call
}

func (t *sessionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	in := t.in
	if !in.trace {
		return t.base.RoundTrip(req)
	}
	id := in.nextID.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	sp := span{layer: "http", kind: classify(req), id: id, parent: t.op.Load(), start: in.now()}
	sp.reqBytes = int64(len(req.Method)+len(req.URL.RequestURI())+12) + headerBytes(req.Header)
	if req.ContentLength > 0 {
		sp.bodyBytes = req.ContentLength
		sp.reqBytes += req.ContentLength
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end = in.now()
		in.record(sp)
		return nil, err
	}
	sp.status = resp.StatusCode
	sp.respBytes = 17 + headerBytes(resp.Header)
	resp.Body = &spanBody{ReadCloser: resp.Body, in: in, sp: sp}
	return resp, nil
}

func headerBytes(h http.Header) int64 {
	var n int64
	for k, vs := range h {
		for _, v := range vs {
			n += int64(len(k) + len(v) + 4)
		}
	}
	return n
}

// spanBody ends its http span when the SDK closes the body.
type spanBody struct {
	io.ReadCloser
	in   *instruments
	sp   span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.respBytes += int64(n)
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.end = b.in.now()
		b.in.record(b.sp)
	})
	return err
}

// classify names the request class of an exchange.
func classify(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/ebf":
		return "ebf"
	case strings.HasPrefix(p, "/v1/cluster/"):
		return "map"
	case !strings.HasPrefix(p, "/v1/db/"):
		return "other"
	case r.Method != http.MethodGet:
		return "write"
	case strings.Count(p, "/") >= 4:
		return "read"
	default:
		return "query"
	}
}

func spanID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	return id
}

// captureWriter remembers the status and the headers a handler wrote.
type captureWriter struct {
	http.ResponseWriter
	status int
	xcache string
	cc     string
}

func (w *captureWriter) WriteHeader(status int) {
	w.status = status
	w.xcache = w.Header().Get("X-Cache")
	w.cc = w.Header().Get("Cache-Control")
	w.ResponseWriter.WriteHeader(status)
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

// wrapCDN times the CDN tier's handler.
func (in *instruments) wrapCDN(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !in.trace {
			next.ServeHTTP(w, r)
			return
		}
		sp := span{layer: "cdn", kind: classify(r), parent: spanID(r), start: in.now()}
		cw := &captureWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		sp.end = in.now()
		sp.status = cw.status
		sp.hit = strings.HasSuffix(cw.xcache, ": HIT")
		in.record(sp)
	})
}

// wrapOrigin counts every request that reaches the origin and, traced,
// times the server's handler and reads the TTL it issued.
func (in *instruments) wrapOrigin(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.originRequests.Add(1)
		if !in.trace {
			next.ServeHTTP(w, r)
			return
		}
		sp := span{layer: "origin", kind: classify(r), parent: spanID(r), start: in.now()}
		cw := &captureWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		sp.end = in.now()
		sp.status = cw.status
		if ttl, ok := sharedTTL(cw.cc); ok {
			sp.ttlSec = ttl.Seconds()
			if sp.kind == "query" {
				in.mu.Lock()
				in.ttlIssued[r.URL.RequestURI()] = issuedTTL{at: in.clk.nowNs(), ttl: ttl}
				in.mu.Unlock()
			}
		}
		in.record(sp)
	})
}

// sharedTTL parses the CDN lifetime (s-maxage, else max-age) of a
// Cache-Control value.
func sharedTTL(cc string) (time.Duration, bool) {
	var maxAge, sMaxAge int
	var hasMax, hasS bool
	for _, d := range strings.Split(cc, ",") {
		d = strings.TrimSpace(d)
		if v, ok := strings.CutPrefix(d, "s-maxage="); ok {
			sMaxAge, _ = strconv.Atoi(v)
			hasS = true
		} else if v, ok := strings.CutPrefix(d, "max-age="); ok {
			maxAge, _ = strconv.Atoi(v)
			hasMax = true
		}
	}
	switch {
	case hasS && sMaxAge > 0:
		return time.Duration(sMaxAge) * time.Second, true
	case hasMax && maxAge > 0:
		return time.Duration(maxAge) * time.Second, true
	}
	return 0, false
}

// purged runs in the server's purge callback.
func (in *instruments) purged(path string) {
	if !in.trace {
		return
	}
	now := time.Now()
	in.mu.Lock()
	defer in.mu.Unlock()
	in.lastPurge[path] = now
	for _, ack := range in.pendingPurge[path] {
		in.writeToPurge = append(in.writeToPurge, float64(now.Sub(ack))/1e3)
	}
	delete(in.pendingPurge, path)
	if is, ok := in.ttlIssued[path]; ok {
		cut := time.Duration(in.clk.nowNs() - is.at)
		if cut < is.ttl {
			in.ttlOverActual = append(in.ttlOverActual, is.ttl.Seconds()/max(cut, time.Millisecond).Seconds())
		}
		delete(in.ttlIssued, path)
	}
}

// writeAcked notes an acknowledged write that changes the results of the
// given query paths, for the ack → purge latency. A path purged since
// the write was sent counts as purged before the ack; a path whose
// issued lifetime has not run out waits for the first purge after the
// ack. Other paths have no cached answer to purge.
func (in *instruments) writeAcked(paths []string, sent, acked time.Time) {
	if !in.trace || len(paths) == 0 {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	now := in.clk.nowNs()
	for _, p := range paths {
		if last, ok := in.lastPurge[p]; ok && last.After(sent) {
			in.purgedBeforeAck++
		} else if is, ok := in.ttlIssued[p]; ok && now < is.at+int64(is.ttl) {
			in.pendingPurge[p] = append(in.pendingPurge[p], acked)
		}
	}
}

// dropPending forgets acks whose purge never came (the query was not
// cached); called once all purges are known to be done.
func (in *instruments) dropPending() {
	in.mu.Lock()
	clear(in.pendingPurge)
	in.mu.Unlock()
}

// writeSpans writes the spans as tab-separated lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tkind\tid\tparent\tstart_ns\tend_ns\treq_bytes\tresp_bytes\tstatus\thit\tttl_s")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%t\t%g\n",
			s.layer, s.kind, s.id, s.parent, s.start, s.end, s.reqBytes, s.respBytes, s.status, s.hit, s.ttlSec)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
