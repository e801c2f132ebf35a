package texservice

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"textjoin/internal/textidx"
)

// capless refuses every optional capability of the inner service with
// its sentinel, as a backend without them does.
type capless struct{ Service }

func (capless) BatchSearch(context.Context, []textidx.Expr, Form) ([]*Result, error) {
	return nil, ErrNoBatch
}

func (capless) TermDocFrequency(context.Context, string, string) (int, error) {
	return 0, ErrNoStats
}

func (capless) Ingest(context.Context, []IngestOp) (*IngestResult, error) {
	return nil, ErrNoIngest
}

func (capless) IndexVersion(context.Context) (uint64, error) { return 0, ErrNoIngest }

func (capless) PinSnapshot(ctx context.Context) context.Context { return ctx }

func (capless) SnapshotPinned(context.Context) bool { return false }

// decorator is what every decorator offers.
type decorator interface {
	Service
	Unwrap() Service
}

// spy is a service with every capability that counts the capability
// calls reaching it.
type spy struct {
	*Local
	mu    sync.Mutex
	calls map[string]int
}

type spyPin struct{}

func (s *spy) saw(op string) {
	s.mu.Lock()
	s.calls[op]++
	s.mu.Unlock()
}

func (s *spy) BatchSearch(ctx context.Context, exprs []textidx.Expr, form Form) ([]*Result, error) {
	s.saw("BatchSearch")
	return s.Local.BatchSearch(ctx, exprs, form)
}

func (s *spy) TermDocFrequency(ctx context.Context, field, term string) (int, error) {
	s.saw("TermDocFrequency")
	return s.Local.TermDocFrequency(ctx, field, term)
}

func (s *spy) Ingest(ctx context.Context, ops []IngestOp) (*IngestResult, error) {
	s.saw("Ingest")
	return &IngestResult{Applied: len(ops), Version: 7}, nil
}

func (s *spy) IndexVersion(ctx context.Context) (uint64, error) {
	s.saw("IndexVersion")
	return 7, nil
}

func (s *spy) PinSnapshot(ctx context.Context) context.Context {
	s.saw("PinSnapshot")
	return context.WithValue(ctx, spyPin{}, true)
}

func (s *spy) SnapshotPinned(ctx context.Context) bool {
	s.saw("SnapshotPinned")
	return ctx.Value(spyPin{}) != nil
}

// decorators are the package's decorator constructors, configured to
// change nothing a contract check could see.
var decorators = []struct {
	name string
	wrap func(Service) decorator
}{
	{"Cached", func(s Service) decorator { return NewCached(s, 4) }},
	{"ProbeCache", func(s Service) decorator { return NewProbeCache(s, 4) }},
	{"Retrying", func(s Service) decorator {
		return NewRetrying(s, RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond})
	}},
	{"Faulty", func(s Service) decorator { return NewFaulty(s, FaultConfig{}) }},
}

// TestDecoratorContract: every decorator passes each optional capability
// and Unwrap through to the inner service exactly once, and over a
// service without the capabilities refuses each with its sentinel.
func TestDecoratorContract(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "belief"},
	}
	ops := []IngestOp{{Kind: IngestPut, ExtID: "n1", Fields: map[string]string{"title": "x"}}}
	for _, d := range decorators {
		t.Run(d.name, func(t *testing.T) {
			inner := &spy{Local: local, calls: map[string]int{}}
			svc := d.wrap(inner)
			if svc.Unwrap() != Service(inner) {
				t.Errorf("Unwrap gives %T, want the inner service", svc.Unwrap())
			}
			if res, err := svc.BatchSearch(bg, exprs, FormShort); err != nil || len(res) != len(exprs) {
				t.Errorf("BatchSearch: %d results, %v", len(res), err)
			}
			if df, err := svc.TermDocFrequency(bg, "title", "text"); err != nil || df != 2 {
				t.Errorf("TermDocFrequency = %d, %v; want 2", df, err)
			}
			if ack, err := svc.Ingest(bg, ops); err != nil || ack.Version != 7 {
				t.Errorf("Ingest = %+v, %v; want version 7", ack, err)
			}
			if v, err := svc.IndexVersion(bg); err != nil || v != 7 {
				t.Errorf("IndexVersion = %d, %v; want 7", v, err)
			}
			pinned := svc.PinSnapshot(bg)
			if pinned.Value(spyPin{}) == nil {
				t.Error("PinSnapshot did not return the inner service's pinned context")
			}
			if !svc.SnapshotPinned(pinned) {
				t.Error("SnapshotPinned did not report the inner service's verdict")
			}
			for _, op := range []string{"BatchSearch", "TermDocFrequency", "Ingest", "IndexVersion", "PinSnapshot", "SnapshotPinned"} {
				if n := inner.calls[op]; n != 1 {
					t.Errorf("%s reached the inner service %d times, want 1", op, n)
				}
			}

			bare := d.wrap(capless{local})
			if _, err := bare.BatchSearch(bg, exprs, FormShort); !errors.Is(err, ErrNoBatch) {
				t.Errorf("BatchSearch over a capless service: %v, want ErrNoBatch", err)
			}
			if _, err := bare.TermDocFrequency(bg, "title", "text"); !errors.Is(err, ErrNoStats) {
				t.Errorf("TermDocFrequency over a capless service: %v, want ErrNoStats", err)
			}
			if _, err := bare.Ingest(bg, ops); !errors.Is(err, ErrNoIngest) {
				t.Errorf("Ingest over a capless service: %v, want ErrNoIngest", err)
			}
			if _, err := bare.IndexVersion(bg); !errors.Is(err, ErrNoIngest) {
				t.Errorf("IndexVersion over a capless service: %v, want ErrNoIngest", err)
			}
			if ctx := bare.PinSnapshot(bg); ctx != bg {
				t.Error("PinSnapshot over a capless service changed the context")
			}
			if bare.SnapshotPinned(bg) {
				t.Error("SnapshotPinned over a capless service reported a pin")
			}
		})
	}
}

// TestSearchBatchDegradesThroughDecorators: a decorator passes its inner
// service's refusal of batched invocation on, so SearchBatch over a
// decorated capless service must fall back to one search per expression
// on the refusal, exactly as it does over the bare service.
func TestSearchBatchDegradesThroughDecorators(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "title", Word: "belief"},
	}
	for _, d := range decorators {
		results, invocations, err := SearchBatch(bg, d.wrap(capless{local}), exprs, FormShort)
		if err != nil {
			t.Errorf("%s: %v", d.name, err)
			continue
		}
		if invocations != len(exprs) {
			t.Errorf("%s: %d invocations, want %d", d.name, invocations, len(exprs))
		}
		for i, r := range results {
			if want, _ := local.Search(bg, exprs[i], FormShort); !sameExtIDs(r, want) {
				t.Errorf("%s: expr %d returned %v, want %v", d.name, i, extIDs(r), extIDs(want))
			}
		}
	}
}

// TestRemoteRefusalsKeepSentinels: a server without a capability refuses
// it over the wire, and the client's error still matches the sentinel, so
// callers above a remote degrade as they would in process.
func TestRemoteRefusalsKeepSentinels(t *testing.T) {
	local, err := NewLocal(testIndex(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(capless{local})
	srv.Logf = t.Logf
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	exprs := []textidx.Expr{
		textidx.Term{Field: "title", Word: "text"},
		textidx.Term{Field: "author", Word: "kao"},
	}
	if _, err := remote.BatchSearch(bg, exprs, FormShort); !errors.Is(err, ErrNoBatch) {
		t.Errorf("BatchSearch: %v, want ErrNoBatch", err)
	}
	if _, err := remote.TermDocFrequency(bg, "title", "text"); !errors.Is(err, ErrNoStats) {
		t.Errorf("TermDocFrequency: %v, want ErrNoStats", err)
	}
	ops := []IngestOp{{Kind: IngestPut, ExtID: "n1", Fields: map[string]string{"title": "x"}}}
	if _, err := remote.Ingest(bg, ops); !errors.Is(err, ErrNoIngest) {
		t.Errorf("Ingest: %v, want ErrNoIngest", err)
	}
	if _, invocations, err := SearchBatch(bg, remote, exprs, FormShort); err != nil || invocations != len(exprs) {
		t.Errorf("SearchBatch over the remote: %d invocations, %v; want %d, nil", invocations, err, len(exprs))
	}
}
