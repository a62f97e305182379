package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"skalla/internal/obs"
	"skalla/internal/stats"
)

// RetryPolicy makes the coordinator's per-site calls survive transient
// failures: each call gets up to MaxAttempts tries, an optional per-attempt
// deadline, and exponential backoff with jitter between attempts. The zero
// value disables retries (one attempt, no deadline), preserving fail-fast
// semantics for callers that have their own recovery.
//
// Retrying a site call is only sound because each attempt's results are
// staged per site before touching the base-result structure X: a stream that
// dies after delivering partial H_i blocks is discarded whole and re-run, so
// no block is ever folded into X twice (see merger.NewStage / CommitStage).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per site call; values < 1
	// mean 1 (no retry).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (with jitter) up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth; 0 means no cap.
	MaxBackoff time.Duration
	// CallTimeout bounds each individual attempt; 0 means no per-attempt
	// deadline (the call still honors the query context's deadline).
	CallTimeout time.Duration
}

// DefaultRetryPolicy is a production-shaped policy: three attempts, 50 ms
// initial backoff doubling to at most 2 s, 30 s per attempt.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
		CallTimeout: 30 * time.Second,
	}
}

// SetRetryPolicy installs the coordinator's per-site retry policy. The zero
// policy (the default) disables retries.
func (c *Coordinator) SetRetryPolicy(p RetryPolicy) { c.retry = p }

// backoff returns the sleep before retry number attempt (1-based): an
// exponential ramp with equal jitter, so simultaneous retries against a
// recovering site spread out instead of stampeding it.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// Equal jitter: half deterministic, half uniform random. math/rand/v2
	// draws from per-P sources, so concurrent per-site retry goroutines
	// don't serialize on the legacy math/rand global mutex here.
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// permanentError marks a site-call failure that retrying cannot fix — e.g. a
// corrupt H block rejected by the staging validator. withRetry unwraps it and
// fails immediately.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// retryable reports whether an attempt failure is worth retrying under the
// still-live parent context: cancellations and permanent (data-shaped)
// errors are not, transport and per-attempt deadline errors are.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		return false
	}
	// A cancellation that is not the parent's must be the attempt deadline
	// (site hung) — retryable. Plain context.Canceled never is.
	return !errors.Is(err, context.Canceled)
}

// withRetry runs one site call under the coordinator's retry policy and
// returns the successful attempt's call record: each attempt gets a per-call
// deadline (when configured) and an attempt-stamped context (the transport
// ships the attempt number to the site), every failed attempt is recorded on
// the round span — with whatever the transport measured before it died — and
// backoff sleeps respect the parent context.
func (c *Coordinator) withRetry(ctx context.Context, rs *obs.RoundSpan, site int, fn func(ctx context.Context) (stats.Call, error)) (stats.Call, error) {
	p := c.retry
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		actx := obs.WithAttempt(ctx, attempt)
		cancel := context.CancelFunc(func() {})
		if p.CallTimeout > 0 {
			actx, cancel = context.WithTimeout(actx, p.CallTimeout)
		}
		call, err := fn(actx)
		cancel()
		if err == nil {
			return call, nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			err = perm.err
		}
		retry := perm == nil && attempt < p.MaxAttempts && retryable(ctx, err)
		rs.Fail(site, attempt, call, err, retry)
		if !retry {
			return call, err
		}
		select {
		case <-time.After(p.backoff(attempt)):
		case <-ctx.Done():
			return call, err
		}
	}
}
