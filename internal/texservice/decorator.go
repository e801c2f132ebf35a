package texservice

// Forward is the embeddable base of every decorator (Cached, ProbeCache,
// Retrying, Faulty in this package). It implements Service by promotion
// from the inner service, so a decorator defines only the operations it
// intercepts and cannot forget to forward the rest; a call the inner
// service refuses is refused the same way through the decorator.
type Forward struct{ Service }

// Unwrap exposes the decorated service, so serving layers can walk a
// decorator chain (e.g. a probe cache stacked on a search cache).
func (f Forward) Unwrap() Service { return f.Service }
