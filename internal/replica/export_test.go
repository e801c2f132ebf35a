package replica

import "time"

// Knobs the tests turn and the shipped Set keeps at their defaults, so
// that ejection, probing, replay eviction and quorum failure can be
// driven in a few calls.

// WithEjectAfter sets the consecutive-failure ejection threshold; values
// below 1 keep the default.
func WithEjectAfter(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.ejectAfter = n
		}
	}
}

// WithHedgeLossEject sets the consecutive-hedge-loss ejection threshold
// (how many races a replica may lose to its own hedge before it is
// treated as browned out); values below 1 keep the default.
func WithHedgeLossEject(n int) Option {
	return func(o *options) {
		if n >= 1 {
			o.hedgeLossEject = n
		}
	}
}

// WithProbeAfter sets how long an ejected replica waits before probe
// re-admission attempts.
func WithProbeAfter(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.probeAfter = d
		}
	}
}

// WithReplayDepth bounds the ingest replay buffer (defaultReplayDepth).
func WithReplayDepth(n int) Option {
	return func(o *options) {
		if n >= 0 {
			o.replayDepth = n
		}
	}
}

// WithWriteQuorum sets how many replica acks an ingest needs to succeed:
// R for all-replica strictness, 1 for availability-first writes.
func WithWriteQuorum(n int) Option {
	return func(o *options) { o.writeQuorum = n }
}
