package texservice

import (
	"context"
	"errors"
	"fmt"
)

// This file defines the write path of the loose integration. The paper
// assumes a frozen corpus; a production text source does not stay
// frozen, so every Service has Ingest and IndexVersion, like the §8
// statistics and batch methods, and a read-only service refuses both
// with ErrNoIngest.

// Ingest op kinds. A put is an upsert keyed on the document's external
// identifier; a delete tombstones the identifier if present.
const (
	IngestPut    = "put"
	IngestDelete = "delete"
)

// IngestOp is one document write. Ops travel in batches; a batch is
// acknowledged only after every op in it is durably logged and applied.
type IngestOp struct {
	// Kind is IngestPut or IngestDelete.
	Kind string `json:"kind"`
	// ExtID is the document's external identifier (e.g. "CSTR-124").
	// Required; it is the upsert/delete key.
	ExtID string `json:"ext"`
	// Fields is the document body for a put; ignored for a delete.
	Fields map[string]string `json:"fields,omitempty"`
}

// Validate checks one op's shape.
func (op IngestOp) Validate() error {
	if op.ExtID == "" {
		return errors.New("texservice: ingest op has empty external id")
	}
	switch op.Kind {
	case IngestPut:
		if len(op.Fields) == 0 {
			return fmt.Errorf("texservice: put of %q has no fields", op.ExtID)
		}
		return nil
	case IngestDelete:
		return nil
	default:
		return fmt.Errorf("texservice: unknown ingest op kind %q", op.Kind)
	}
}

// ValidateIngest checks a batch of ops.
func ValidateIngest(ops []IngestOp) error {
	if len(ops) == 0 {
		return errors.New("texservice: empty ingest batch")
	}
	for i, op := range ops {
		if err := op.Validate(); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// IngestResult acknowledges a durably applied batch.
type IngestResult struct {
	// Seq is the highest sequence number the batch was assigned. On a
	// sharded service it is the highest across shards.
	Seq uint64 `json:"seq"`
	// Applied counts the ops that changed visible state (a delete of an
	// absent document applies nowhere and is not counted).
	Applied int `json:"applied"`
	// Version is the index version after the batch: a monotonically
	// increasing value that changes whenever visible documents change.
	// Caches key their entries on it. On a sharded service it is the sum
	// of the shard versions.
	Version uint64 `json:"version"`
}

// Ingestor is the write capability: services backed by a mutable index
// accept writes, every layer between the client and the index (caches,
// retry, fault injection, sharding, the wire protocol) forwards them,
// and a read-only backend refuses them with ErrNoIngest. An acknowledged
// batch is durable and visible to subsequent searches.
type Ingestor interface {
	Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error)
}

// Versioned is the index-version capability that accompanies Ingestor:
// a monotonically increasing version that changes whenever the visible
// collection changes. Read-through caches compare it to decide whether
// their entries are still current.
type Versioned interface {
	IndexVersion(ctx context.Context) (uint64, error)
}

// SnapshotPinner is the snapshot-isolation capability: PinSnapshot
// returns a context under which every read against the service uses one
// collection state, no matter how many writes land while the query runs.
// Implementations may capture that state lazily, at the query's first
// read or PinProber probe (ingest.Live does), so long as it is no older
// than the PinSnapshot call. The query path pins once per query; services
// that never pin (frozen backends, remotes) return ctx unchanged.
type SnapshotPinner interface {
	PinSnapshot(ctx context.Context) context.Context
}

// PinSnapshot pins ctx against svc.
func PinSnapshot(ctx context.Context, svc Service) context.Context { return svc.PinSnapshot(ctx) }

// PinProber is the companion capability to SnapshotPinner: it reports
// whether a context carries a pinned view for the service (or anything
// it wraps) that has fallen BEHIND the service's current state.
// Version-keyed caches consult it to bypass both lookup and fill for
// such queries — their answers reflect the old pinned view, and
// recording one under the current index version would serve pre-write
// results to unpinned readers. A pin still at the current state reports
// false and keeps full cache utility.
type PinProber interface {
	SnapshotPinned(ctx context.Context) bool
}

// SnapshotPinned reports whether ctx carries a behind-current pinned
// view for svc.
func SnapshotPinned(ctx context.Context, svc Service) bool { return svc.SnapshotPinned(ctx) }

// ErrNoIngest is returned when an ingest or version request reaches a
// service without the write capability (a frozen, read-only backend).
var ErrNoIngest = errors.New("texservice: service does not support ingest")

// IngestInto sends a batch to svc.
func IngestInto(ctx context.Context, svc Service, ops []IngestOp) (*IngestResult, error) {
	return svc.Ingest(ctx, ops)
}
