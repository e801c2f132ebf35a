package texservice

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"textjoin/internal/obs"
)

// Wire protocol for the remote text service: each message is a 4-byte
// big-endian length followed by a JSON body. The search expression travels
// as its textual search-syntax rendering and is re-parsed by the server —
// the same loose coupling a real mediator has with a networked text system.

// maxMessageSize bounds a single protocol message (16 MiB).
const maxMessageSize = 16 << 20

type wireRequest struct {
	Op      string     `json:"op"` // "search", "batchsearch", "retrieve", "info", "docfreq", "ingest", "version"
	Query   string     `json:"query,omitempty"`
	Queries []string   `json:"queries,omitempty"`
	Form    string     `json:"form,omitempty"`
	ID      int32      `json:"id,omitempty"`
	Field   string     `json:"field,omitempty"`
	Term    string     `json:"term,omitempty"`
	Ops     []IngestOp `json:"ingest,omitempty"`
	// Trace carries the client's trace ID (obs.IDFrom) so server-side
	// request logs correlate with client spans. Empty when the client is
	// not tracing; servers must treat it as opaque.
	Trace string `json:"trace,omitempty"`
	// Spans asks the server to record its own span tree under Trace and
	// return it on the reply. Clients set it whenever they trace the call.
	Spans bool `json:"spans,omitempty"`
}

// A search answer travels columnar, as Result holds it: the field names
// once per answer, each hit's values in that order (hit-wire version 1).
type wireHit struct {
	ID    int32    `json:"id"`
	ExtID string   `json:"ext"`
	Vals  []string `json:"vals"`
}

type wireBatchResult struct {
	Fields   []string  `json:"fields"`
	Hits     []wireHit `json:"hits"`
	Postings int       `json:"postings"`
}

type wireResponse struct {
	Error    string            `json:"error,omitempty"`
	Fields   []string          `json:"fields,omitempty"`
	Hits     []wireHit         `json:"hits,omitempty"`
	Postings int               `json:"postings,omitempty"`
	Batch    []wireBatchResult `json:"batch,omitempty"`
	DocExt   string            `json:"docExt,omitempty"`
	DocField map[string]string `json:"docFields,omitempty"`
	NumDocs  int               `json:"numDocs,omitempty"`
	MaxTerms int               `json:"maxTerms,omitempty"`
	Short    []string          `json:"shortFields,omitempty"`
	DocFreq  int               `json:"docFreq,omitempty"`
	Ingest   *IngestResult     `json:"ingestResult,omitempty"`
	Version  uint64            `json:"version,omitempty"`
	// HitVer advertises (on info replies) the hit-wire version the server
	// answers searches in; 0, the zero value an old server implies, is
	// the map-per-hit shape. A client decodes one version only and
	// refuses to dial a server that speaks another.
	HitVer int `json:"hitVer,omitempty"`
	// Spans is the server-side span subtree for this request, present only
	// when the request set Spans. All offsets inside are relative (see
	// obs.SpanSnapshot), so client/server clock skew cannot corrupt the
	// stitched trace.
	Spans *obs.SpanSnapshot `json:"spans,omitempty"`
}

// hitWireVersion is the hit-wire version this build speaks: columnar
// answers (wireBatchResult).
const hitWireVersion = 1

// writeMessage frames and writes one JSON message.
func writeMessage(w io.Writer, v interface{}) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("texservice: marshal: %w", err)
	}
	if len(body) > maxMessageSize {
		return fmt.Errorf("texservice: message too large (%d bytes)", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// readMessage reads one framed JSON message into v.
func readMessage(r io.Reader, v interface{}) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxMessageSize {
		return fmt.Errorf("texservice: message too large (%d bytes)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func parseForm(s string) (Form, error) {
	switch s {
	case "short", "":
		return FormShort, nil
	case "long":
		return FormLong, nil
	default:
		return FormShort, fmt.Errorf("texservice: unknown form %q", s)
	}
}
