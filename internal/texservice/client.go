package texservice

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// Remote is a Service backed by a text server over TCP. It demonstrates
// the fully loose integration: every Search really is a network round
// trip, so the invocation overhead the paper's c_i models is physically
// present, and the simulated meter is charged identically to Local so
// experiments are backend-independent.
//
// The client is built for the unreliable, high-latency link the paper's
// calibration assumed (a WAN round trip to Mercury): a connection pool
// lets concurrent probes overlap instead of queueing on one socket,
// per-call deadlines bound how long a hung server can wedge a query,
// and context cancellation interrupts in-flight reads. Each call makes
// one attempt (a pooled connection that died while idle is redialed
// once, which is pool hygiene rather than a retry); wrap the client in
// Retrying to resend transient failures (connection reset, timeout,
// server restart) with exponential backoff and jitter.
type Remote struct {
	addr        string
	cfg         dialConfig
	meter       *Meter
	numDocs     int
	maxTerms    int
	shortFields []string
	spanVer     int // server's span-return protocol version (0: never ask)

	// slots bounds the number of live connections (the pool size): one
	// token per in-use or to-be-dialed connection.
	slots chan struct{}

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// DefaultPoolSize is the connection-pool capacity used when WithPoolSize
// is not given.
const DefaultPoolSize = 4

// dialConfig carries the client options.
type dialConfig struct {
	pool        int
	timeout     time.Duration
	dialTimeout time.Duration
}

// DialOption configures a Remote client.
type DialOption func(*dialConfig)

// WithPoolSize sets the maximum number of concurrent TCP connections
// (default DefaultPoolSize). Connections are dialed lazily and re-dialed
// after failures.
func WithPoolSize(n int) DialOption {
	return func(c *dialConfig) {
		if n > 0 {
			c.pool = n
		}
	}
}

// WithTimeout sets the per-attempt I/O deadline for each call (default
// none). A hung server then surfaces as a timeout error instead of
// blocking forever; a Retrying wrapper resends timed-out calls.
func WithTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// Dial connects to a text server and fetches its collection info in one
// attempt.
func Dial(addr string, meter *Meter, opts ...DialOption) (*Remote, error) {
	if meter == nil {
		meter = NewMeter(DefaultCosts())
	}
	cfg := dialConfig{
		pool:        DefaultPoolSize,
		dialTimeout: 10 * time.Second,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	r := &Remote{
		addr:  addr,
		cfg:   cfg,
		meter: meter,
		slots: make(chan struct{}, cfg.pool),
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.dialTimeout)
	defer cancel()
	resp, err := r.call(ctx, "info", wireRequest{Op: "info"})
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("texservice: dial %s: %w", addr, err)
	}
	r.numDocs = resp.NumDocs
	r.maxTerms = resp.MaxTerms
	r.shortFields = resp.Short
	r.spanVer = resp.SpanVer
	return r, nil
}

// SpanVersion reports the server's negotiated span-return protocol
// version (0 means the server predates span return and is never asked).
func (r *Remote) SpanVersion() int { return r.spanVer }

// Close releases all pooled connections; subsequent calls fail.
func (r *Remote) Close() error {
	r.mu.Lock()
	r.closed = true
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
	return nil
}

// acquire takes a pool slot and returns an idle connection (reused=true)
// or dials a fresh one.
func (r *Remote) acquire(ctx context.Context) (conn net.Conn, reused bool, err error) {
	select {
	case r.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.slots
		return nil, false, net.ErrClosed
	}
	if n := len(r.idle); n > 0 {
		conn = r.idle[n-1]
		r.idle = r.idle[:n-1]
	}
	r.mu.Unlock()
	if conn != nil {
		return conn, true, nil
	}
	d := net.Dialer{Timeout: r.cfg.dialTimeout}
	conn, err = d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		<-r.slots
		return nil, false, err
	}
	return conn, false, nil
}

// release returns a healthy connection to the idle pool.
func (r *Remote) release(conn net.Conn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		<-r.slots
		return
	}
	r.idle = append(r.idle, conn)
	r.mu.Unlock()
	<-r.slots
}

// discard closes a failed connection and frees its slot.
func (r *Remote) discard(conn net.Conn) {
	conn.Close()
	<-r.slots
}

// flushIdle drops every idle connection. Called after a connection-level
// failure: when the server restarted, the whole pool shares the fate of
// the connection that just died, and keeping the corpses would waste one
// call each.
func (r *Remote) flushIdle() {
	r.mu.Lock()
	idle := r.idle
	r.idle = nil
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// attempt performs one round trip on one connection. On connection-reuse
// failures the dead connection is discarded and the request is resent
// once on a freshly dialed connection (the failure proves only that the
// pooled socket had died in the meantime, not that the server is
// unhealthy).
func (r *Remote) attempt(ctx context.Context, req wireRequest) (*wireResponse, error) {
	for redial := 0; ; redial++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		conn, reused, err := r.acquire(ctx)
		if err != nil {
			return nil, err
		}
		resp, err := r.roundTrip(ctx, conn, req)
		if err == nil {
			r.release(conn)
			return resp, nil
		}
		r.discard(conn)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if IsTransient(err) {
			r.flushIdle()
			if reused && redial == 0 {
				continue
			}
		}
		return nil, err
	}
}

// roundTrip writes one request and reads one response under the per-call
// deadline, with a watchdog that interrupts a blocked read when the
// context is cancelled.
func (r *Remote) roundTrip(ctx context.Context, conn net.Conn, req wireRequest) (*wireResponse, error) {
	var deadline time.Time
	if r.cfg.timeout > 0 {
		deadline = time.Now().Add(r.cfg.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0)) // unblock any in-flight I/O
	})
	defer stop()
	if err := writeMessage(conn, req); err != nil {
		return nil, err
	}
	var resp wireResponse
	if err := readMessage(conn, &resp); err != nil {
		return nil, err
	}
	if !deadline.IsZero() {
		if err := conn.SetDeadline(time.Time{}); err != nil {
			return nil, err
		}
	}
	return &resp, nil
}

// call runs one operation and surfaces server-side application errors.
// The span records the server address; the context's trace ID rides the
// wire so the server's request log can be correlated. When the server
// speaks the span-return protocol, the reply carries the backend's own
// span subtree, which is grafted under this call's span tagged with the
// server address — remote legs stop being black boxes in the trace.
func (r *Remote) call(ctx context.Context, op string, req wireRequest) (*wireResponse, error) {
	ctx, sp := obs.StartSpan(ctx, "remote."+req.Op)
	if sp != nil {
		req.Trace = obs.IDFrom(ctx)
		req.Spans = r.spanVer >= 1
		sp.SetAttr(obs.Str("addr", r.addr))
		defer sp.End()
	}
	resp, err := r.attempt(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Spans != nil {
		// Graft the backend's subtree (error replies included — a failed
		// call's server-side view is the interesting one). AttachRemote is
		// nil-safe, but resp.Spans is only present when we asked, i.e.
		// when sp != nil.
		sp.AttachRemote(*resp.Spans, r.addr)
	}
	if resp.Error != "" {
		return nil, replyError(op, resp.Error)
	}
	return resp, nil
}

// replyError rebuilds a server's error reply. A capability refusal keeps
// its sentinel across the wire, so a client of a server without batching,
// statistics or ingest degrades exactly as an in-process caller would.
func replyError(op, msg string) error {
	for _, refusal := range []error{ErrNoBatch, ErrNoStats, ErrNoIngest} {
		if prefix, ok := strings.CutSuffix(msg, refusal.Error()); ok {
			return fmt.Errorf("texservice: %s: %s%w", op, prefix, refusal)
		}
	}
	return fmt.Errorf("texservice: %s: %s", op, msg)
}

// Search implements Service: one "search" round trip.
func (r *Remote) Search(ctx context.Context, e textidx.Expr, form Form) (*Result, error) {
	return Single(r.search(ctx, false, []textidx.Expr{e}, form))
}

// search is Remote's one request path: one round trip — op "search" for
// a single search, "batchsearch" for a batch — charged as one invocation.
// The server's own meter is also charged; the client meter is the one the
// experiments read, since the cost model describes the integrated system
// from the database side.
func (r *Remote) search(ctx context.Context, batch bool, exprs []textidx.Expr, form Form) ([]*Result, error) {
	if err := CheckTermLimit(exprs, r.maxTerms); err != nil {
		return nil, err
	}
	op, req := "search", wireRequest{Op: "search", Form: form.String()}
	if batch {
		op, req.Op = "batch search", "batchsearch"
		req.Queries = make([]string, len(exprs))
		for i, e := range exprs {
			req.Queries[i] = e.String()
		}
	} else {
		req.Query = exprs[0].String()
	}
	resp, err := r.call(ctx, op, req)
	if err != nil {
		return nil, err
	}
	replies := resp.Batch
	if !batch {
		replies = []wireBatchResult{{Hits: resp.Hits, Postings: resp.Postings}}
	}
	if len(replies) != len(exprs) {
		return nil, fmt.Errorf("texservice: batch search returned %d results for %d queries",
			len(replies), len(exprs))
	}
	out := make([]*Result, len(replies))
	postings, docs := 0, 0
	for i, b := range replies {
		res := &Result{Postings: b.Postings, Hits: make([]Hit, len(b.Hits))}
		for j, h := range b.Hits {
			res.Hits[j] = Hit{ID: textidx.DocID(h.ID), ExtID: h.ExtID, Fields: h.Fields}
		}
		out[i] = res
		postings += b.Postings
		docs += len(b.Hits)
	}
	r.meter.ChargeSearch(ctx, postings, docs, form)
	return out, nil
}

// Retrieve implements Service.
func (r *Remote) Retrieve(ctx context.Context, id textidx.DocID) (textidx.Document, error) {
	resp, err := r.call(ctx, "retrieve", wireRequest{Op: "retrieve", ID: int32(id)})
	if err != nil {
		return textidx.Document{}, err
	}
	r.meter.ChargeRetrieve(ctx)
	return textidx.Document{ExtID: resp.DocExt, Fields: resp.DocField}, nil
}

// BatchSearch implements BatchSearcher over the wire: the whole batch is
// one "batchsearch" round trip and is charged one invocation cost.
func (r *Remote) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	return r.search(ctx, true, exprs, form)
}

// Ingest implements Ingestor over the wire: the batch is one round trip
// and the ack carries the server's sequence and index version. The call
// shares the pool of the read path; a Retrying wrapper's resends after a
// lost ack are safe because puts are upserts and deletes are idempotent.
func (r *Remote) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	if err := ValidateIngest(ops); err != nil {
		return nil, err
	}
	resp, err := r.call(ctx, "ingest", wireRequest{Op: "ingest", Ops: ops})
	if err != nil {
		return nil, err
	}
	if resp.Ingest == nil {
		return nil, fmt.Errorf("texservice: ingest: server sent no ack")
	}
	return resp.Ingest, nil
}

// IndexVersion implements Versioned over the wire.
func (r *Remote) IndexVersion(ctx context.Context) (uint64, error) {
	resp, err := r.call(ctx, "version", wireRequest{Op: "version"})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// TermDocFrequency implements StatsProvider over the wire.
func (r *Remote) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	resp, err := r.call(ctx, "docfreq", wireRequest{Op: "docfreq", Field: field, Term: term})
	if err != nil {
		return 0, err
	}
	return resp.DocFreq, nil
}

// NumDocs implements Service.
func (r *Remote) NumDocs() (int, error) { return r.numDocs, nil }

// MaxTerms implements Service.
func (r *Remote) MaxTerms() int { return r.maxTerms }

// ShortFields implements Service.
func (r *Remote) ShortFields() []string { return append([]string(nil), r.shortFields...) }

// Meter implements Service.
func (r *Remote) Meter() *Meter { return r.meter }

// PoolSize reports the configured connection-pool capacity.
func (r *Remote) PoolSize() int { return r.cfg.pool }

// IdleConns reports the number of pooled idle connections (observability
// and tests).
func (r *Remote) IdleConns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.idle)
}

var _ Service = (*Remote)(nil)
