package texservice

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"textjoin/internal/obs"
	"textjoin/internal/textidx"
)

// Server exposes a Service over TCP so the database side can integrate
// with the text system the way the paper's OpenODB integrated with the
// remote Mercury server. Any Service works as the backend — in particular
// a Local wrapped in Faulty, which is how `textserve -chaos` serves a
// deliberately misbehaving text system for fault-tolerance testing.
type Server struct {
	svc Service

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
	ctx      context.Context
	cancel   context.CancelFunc

	// Logf, when set, receives connection-level error logs. Defaults to
	// log.Printf.
	Logf func(format string, args ...interface{})
	// LogRequests, when set, logs one line per request through Logf,
	// including the client's trace ID (wireRequest.Trace) so server-side
	// logs correlate with the client's span tree. Off by default: the
	// request log is per-operation and would swamp benchmarks.
	LogRequests bool
}

// NewServer wraps a Service (typically a *Local, optionally decorated
// with Faulty for chaos serving).
func NewServer(svc Service) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{svc: svc, conns: map[net.Conn]bool{}, Logf: log.Printf, ctx: ctx, cancel: cancel}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines;
// call Close to stop.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener and all active connections, and cancels the
// server context so handlers blocked in an injected hang unwedge.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		var req wireRequest
		if err := readMessage(conn, &req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
				s.Logf("texservice: read: %v", err)
			}
			return
		}
		start := time.Now()
		resp, drop := s.handle(s.ctx, req)
		if s.LogRequests {
			trace := req.Trace
			if trace == "" {
				trace = "-"
			}
			s.Logf("texservice: op=%s trace=%s remote=%s dur=%s err=%q drop=%v",
				req.Op, trace, conn.RemoteAddr(), time.Since(start).Round(time.Microsecond), resp.Error, drop)
		}
		if drop {
			// An injected connection drop: sever the connection without
			// replying, exactly what a crashing server would do mid-call.
			return
		}
		if err := writeMessage(conn, resp); err != nil {
			s.Logf("texservice: write: %v", err)
			return
		}
	}
}

// handle runs one request, recording a server-side span tree when the
// client asked for one (req.Spans under a propagated trace ID). The tree
// is rooted at "textserve.<op>" with the backend's own spans (local
// search, live-ingest apply, nested remote calls) as children, and rides
// back on the reply with only relative offsets — the server's clock never
// reaches the client.
func (s *Server) handle(ctx context.Context, req wireRequest) (wireResponse, bool) {
	if !req.Spans || req.Trace == "" {
		return s.dispatch(ctx, req)
	}
	rec := obs.NewRecorder("textserve." + req.Op)
	rec.ID = req.Trace
	resp, drop := s.dispatch(obs.WithRecorder(ctx, rec), req)
	if !drop {
		root := rec.Root()
		if resp.Error != "" {
			root.SetAttr(obs.Str("err", resp.Error))
		}
		root.End()
		snap := root.Snapshot()
		resp.Spans = &snap
	}
	return resp, drop
}

// dispatch routes one request to the backend service. drop=true means the
// connection must be severed without a reply (injected connection drop
// from a Faulty backend or server shutdown mid-call).
func (s *Server) dispatch(ctx context.Context, req wireRequest) (resp wireResponse, drop bool) {
	switch req.Op {
	case "search", "batchsearch":
		return s.search(ctx, req)
	case "docfreq":
		df, err := s.svc.TermDocFrequency(ctx, req.Field, req.Term)
		if err != nil {
			return errResponse(err)
		}
		return wireResponse{DocFreq: df}, false
	case "retrieve":
		doc, err := s.svc.Retrieve(ctx, textidx.DocID(req.ID))
		if err != nil {
			return errResponse(err)
		}
		return wireResponse{DocExt: doc.ExtID, DocField: doc.Fields}, false
	case "ingest":
		res, err := s.svc.Ingest(ctx, req.Ops)
		if err != nil {
			return errResponse(err)
		}
		return wireResponse{Ingest: res}, false
	case "version":
		ver, err := s.svc.IndexVersion(ctx)
		if err != nil {
			return errResponse(err)
		}
		return wireResponse{Version: ver}, false
	case "info":
		n, _ := s.svc.NumDocs()
		return wireResponse{NumDocs: n, MaxTerms: s.svc.MaxTerms(), Short: s.svc.ShortFields(),
			HitVer: hitWireVersion}, false
	default:
		return wireResponse{Error: fmt.Sprintf("texservice: unknown op %q", req.Op)}, false
	}
}

// errResponse converts a backend error into a wire response, recognizing
// the failures that must sever the connection instead of answering.
func errResponse(err error) (wireResponse, bool) {
	if errors.Is(err, ErrConnDrop) || errors.Is(err, context.Canceled) {
		return wireResponse{}, true
	}
	return wireResponse{Error: err.Error()}, false
}

// search serves both search ops: "search" carries one query and is
// answered by the backend's Search, "batchsearch" carries several and is
// answered by its BatchSearch (see Invoke); the reply keeps the request's
// shape.
func (s *Server) search(ctx context.Context, req wireRequest) (wireResponse, bool) {
	batch := req.Op == "batchsearch"
	form, err := parseForm(req.Form)
	if err != nil {
		return wireResponse{Error: err.Error()}, false
	}
	queries := req.Queries
	if !batch {
		queries = []string{req.Query}
	}
	exprs := make([]textidx.Expr, len(queries))
	for i, q := range queries {
		if exprs[i], err = textidx.Parse(q, nil); err != nil {
			return wireResponse{Error: err.Error()}, false
		}
	}
	results, err := Invoke(ctx, s.svc, batch, exprs, form)
	if err != nil {
		return errResponse(err)
	}
	replies := make([]wireBatchResult, len(results))
	for i, r := range results {
		hits := make([]wireHit, len(r.Hits))
		for j, h := range r.Hits {
			hits[j] = wireHit{ID: int32(h.ID), ExtID: h.ExtID, Vals: h.Values}
		}
		replies[i] = wireBatchResult{Fields: r.Fields, Hits: hits, Postings: r.Postings}
	}
	if !batch {
		return wireResponse{Fields: replies[0].Fields, Hits: replies[0].Hits, Postings: replies[0].Postings}, false
	}
	return wireResponse{Batch: replies}, false
}
